//go:build linux && !race

package centrality

import "syscall"

// scratchMaps reports that this build can hold betweenness scratch
// outside the Go heap.
const scratchMaps = true

// hugePage is the transparent huge page size on amd64, and on arm64 with
// 4 KiB base pages. A smaller scratch request stays on the heap: it would
// fill only part of one huge page, and a fresh mapping per call then costs
// more in system calls and page faults than the heap's reused pages.
const hugePage = 2 << 20

// mapScratch returns size zeroed bytes in an anonymous mapping of their
// own, advised MADV_HUGEPAGE, or nil when size is under one huge page or
// the mapping fails: the caller then allocates on the heap. The length is
// rounded up to whole huge pages, so the kernel can place and back all of
// it with them. unmapScratch returns the mapping to the system.
func mapScratch(size int) []byte {
	if size < hugePage {
		return nil
	}
	size = (size + hugePage - 1) &^ (hugePage - 1)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	// Advice only: a kernel without transparent huge pages refuses it, and
	// the mapping works on base pages.
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE)
	return mem
}

// unmapScratch releases a mapping mapScratch returned; nil is a no-op.
// Munmap fails only for a range that is not a live mapping, which no
// caller passes.
func unmapScratch(mem []byte) {
	if mem != nil {
		_ = syscall.Munmap(mem)
	}
}
