//go:build unix

package storage

import "syscall"

// Map and Unmap map with mmap(2), read-only and shared, so what WriteAt
// writes is visible through the mapping at once, from the page cache.
func (o osFile) Map(n int64) ([]byte, error) {
	return syscall.Mmap(int(o.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
}

func (o osFile) Unmap(b []byte) error { return syscall.Munmap(b) }
