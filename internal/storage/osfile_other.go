//go:build !linux

package storage

import "errors"

// Preallocate reserves nothing where this build has no fallocate(2): appends
// allocate blocks as they write.
func (o osFile) Preallocate(off, n int64) error { return errors.ErrUnsupported }

// HolesAfter knows of no holes where this build has no SEEK_DATA: an open
// reads a tail's zeros to check them.
func (o osFile) HolesAfter(int64) bool { return false }
