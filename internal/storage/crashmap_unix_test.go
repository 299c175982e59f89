//go:build unix

package storage

import "syscall"

// anonMap returns n zero bytes of a private anonymous mapping. The kernel
// backs a page only once it is written, so mapping a 4 MiB segment costs what
// the harness writes into it, not an allocation and a clear of 4 MiB the
// collector then has to reclaim.
func anonMap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func anonUnmap(b []byte) { _ = syscall.Munmap(b) }
