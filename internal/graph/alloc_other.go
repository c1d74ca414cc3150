//go:build !linux

package graph

import "os"

// allocateFile sizes f with Truncate, which leaves it sparse: on unix
// systems other than Linux a full disk can still raise SIGBUS at a store
// through PackEdgeListFile's mapping. Tests swap it to inject ENOSPC.
var allocateFile = func(f *os.File, size int64) error { return f.Truncate(size) }
