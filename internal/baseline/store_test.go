package baseline

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"obladi/internal/storage"
)

func TestMemStore(t *testing.T) {
	s := memStore()
	if _, found, err := s.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = found=%v err=%v", found, err)
	}
	must(t, s.Put("k", []byte("v1")))
	if v, found, err := s.Get("k"); err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get(k) = %q found=%v err=%v", v, found, err)
	}
	must(t, s.Put("k", []byte("v2")))
	if v, _, _ := s.Get("k"); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	must(t, s.Put("empty", nil))
	if v, found, err := s.Get("empty"); err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value: %q found=%v err=%v", v, found, err)
	}
	must(t, s.Delete("k"))
	if _, found, _ := s.Get("k"); found {
		t.Fatal("key survives Delete")
	}
	must(t, s.Delete("k")) // idempotent
}

// TestMemStoreKeepsItsOwnCopies hands the store keys and values that alias
// one scratch buffer, the way a wire server's carved keys alias their chunk,
// then reuses the buffer: the store must keep its own copies, hand out
// copies a caller may modify, and serve concurrent callers (run it under
// -race).
func TestMemStoreKeepsItsOwnCopies(t *testing.T) {
	s := memStore()
	scratch := make([]byte, 0, 256)
	carve := func(b string) []byte {
		start := len(scratch)
		scratch = append(scratch, b...)
		return scratch[start:len(scratch):len(scratch)]
	}
	for i := 0; i < 4; i++ {
		k := carve(fmt.Sprintf("k%d", i))
		must(t, s.Put(unsafe.String(&k[0], len(k)), carve(fmt.Sprintf("v%d", i))))
	}
	for i := range scratch {
		scratch[i] = 'x'
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(scratch)))
	aliases := func(p unsafe.Pointer) bool {
		d := uintptr(p)
		return d >= lo && d < lo+uintptr(cap(scratch))
	}
	for k, v := range s.m {
		if aliases(unsafe.Pointer(unsafe.StringData(k))) || aliases(unsafe.Pointer(unsafe.SliceData(v))) {
			t.Fatalf("the store keeps the caller's bytes for %q", k)
		}
	}
	for i := 0; i < 4; i++ {
		k, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		v, found, err := s.Get(k)
		if err != nil || !found || string(v) != want {
			t.Fatalf("Get(%s) = %q found=%v err=%v, want %q", k, v, found, err, want)
		}
		v[0] = 'x'
		if again, _, _ := s.Get(k); string(again) != want {
			t.Fatalf("modifying a Get's value changed the store: %q", again)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("shared%d", i%3)
				switch (g + i) % 3 {
				case 0:
					if err := s.Put(k, []byte{byte(g), byte(i)}); err != nil {
						t.Error(err)
					}
				case 1:
					if v, found, err := s.Get(k); err != nil || (found && len(v) != 2) {
						t.Errorf("Get(%s) = %x found=%v err=%v", k, v, found, err)
					}
				case 2:
					if err := s.Delete(k); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemStorePacing: a store built with Read = Write = d charges at least d
// per call, and at most MaxConcurrent calls hold a request slot at once.
func TestMemStorePacing(t *testing.T) {
	const d = 5 * time.Millisecond
	s := NewMemStore(storage.Profile{Name: "paced", Read: d, Write: d, MaxConcurrent: 2})
	for name, call := range map[string]func() error{
		"Get":    func() error { _, _, err := s.Get("k"); return err },
		"Put":    func() error { return s.Put("k", []byte("v")) },
		"Delete": func() error { return s.Delete("k") },
	} {
		start := time.Now()
		must(t, call())
		if took := time.Since(start); took < d {
			t.Fatalf("%s returned after %v, want >= %v", name, took, d)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				s.Get("k")
			} else {
				s.Put("k", []byte("v"))
			}
		}(i)
	}
	wg.Wait()
	// 8 calls at concurrency 2 need 4 waves of at least d.
	if took := time.Since(start); took < 4*d {
		t.Fatalf("8 calls capped at 2 finished in %v, want >= %v", took, 4*d)
	}
}
