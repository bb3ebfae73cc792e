//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. The mapping outlives the file
// descriptor, so Open closes it straight away.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: cannot map %d bytes", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmapFile(b []byte) error { return syscall.Munmap(b) }
