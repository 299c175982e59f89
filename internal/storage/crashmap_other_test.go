//go:build !unix

package storage

// anonMap returns n zero bytes of the heap where there is no mmap(2).
func anonMap(n int) ([]byte, error) { return make([]byte, n), nil }

func anonUnmap([]byte) {}
