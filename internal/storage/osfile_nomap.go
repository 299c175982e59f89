//go:build !unix

package storage

import (
	"errors"
	"runtime"
)

// errNoMap is Map's error where this build maps no files: a disk group reads
// its log through mappings only, so its open fails there.
var errNoMap = errors.New("storage: no file mapping on " + runtime.GOOS + ", and a disk group reads its log through mappings")

func (o osFile) Map(int64) ([]byte, error) { return nil, errNoMap }
func (o osFile) Unmap([]byte) error        { return errNoMap }
