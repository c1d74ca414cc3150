//go:build !linux || race

package centrality

// Without Linux's anonymous mappings, and in race builds, betweenness
// scratch lives on the Go heap. The race detector only watches memory in
// the Go arena, so a race build must keep the rows there to check the
// sweeps that share them.

const scratchMaps = false

func mapScratch(int) []byte { return nil }

func unmapScratch([]byte) {}
