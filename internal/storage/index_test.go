package storage

import (
	"testing"
	"unsafe"
)

// TestVersionFootprint pins what a store spends on each version it indexes,
// about one per bucket of the tree: a version's slots have one length, so its
// layout is a slot count and that length, and the whole entry is at most 56
// bytes.
func TestVersionFootprint(t *testing.T) {
	if n := unsafe.Sizeof(slotLayout{}); n != 8 {
		t.Fatalf("a slotLayout is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(version{}); n > 56 {
		t.Fatalf("a version is %d bytes, want at most 56", n)
	}
}
