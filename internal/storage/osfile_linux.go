//go:build linux

package storage

import "syscall"

// Preallocate implements the optional preallocator capability with
// fallocate(2) in its default mode: blocks are reserved and the file size
// extends to cover them, so appends within the region change no allocation
// metadata and their fsyncs skip the journal commit for it. The region
// reads as zeros until written, which record replay already treats as a
// torn tail.
func (o osFile) Preallocate(off, n int64) error {
	return syscall.Fallocate(int(o.f.Fd()), 0, off, n)
}

// Map and Unmap implement the optional mapper capability with mmap(2):
// read-only and shared, so what WriteAt writes is visible through the
// mapping at once, from the page cache.
func (o osFile) Map(n int64) ([]byte, error) {
	return syscall.Mmap(int(o.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
}

func (o osFile) Unmap(b []byte) error { return syscall.Munmap(b) }
