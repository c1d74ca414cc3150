//go:build linux

package graph

import (
	"os"
	"syscall"
)

// allocateFile sizes f with every block allocated, so a full disk is an
// error here and not a SIGBUS at a store through PackEdgeListFile's shared
// mapping, which kills the process. Without fallocate support it falls
// back to a sparse Truncate. Tests swap it to inject ENOSPC.
var allocateFile = func(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	for err == syscall.EINTR {
		err = syscall.Fallocate(int(f.Fd()), 0, 0, size)
	}
	switch err {
	case nil:
		return nil
	case syscall.EOPNOTSUPP:
		return f.Truncate(size)
	}
	return &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
}
