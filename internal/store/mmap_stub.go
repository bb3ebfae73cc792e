//go:build !unix

package store

import (
	"errors"
	"os"
)

// Platforms without the unix mmap syscalls: Open reads the whole file into
// memory instead.
func mmapFile(_ *os.File, _ int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func munmapFile(_ []byte) error { return nil }
