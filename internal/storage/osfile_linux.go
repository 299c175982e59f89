//go:build linux

package storage

import (
	"errors"
	"syscall"
)

// Preallocate reserves with fallocate(2) in its default mode: blocks are
// reserved and the file size extends to cover them, so appends within the
// region change no allocation metadata and their fsyncs skip the journal
// commit for it. The region reads as zeros until written, which record replay
// already treats as a torn tail.
func (o osFile) Preallocate(off, n int64) error {
	return syscall.Fallocate(int(o.f.Fd()), 0, off, n)
}

// HolesAfter asks lseek(2), whose SEEK_DATA passes over a reservation's
// never-written blocks as holes.
func (o osFile) HolesAfter(off int64) bool {
	_, err := o.f.Seek(off, 3) // SEEK_DATA
	return errors.Is(err, syscall.ENXIO)
}
