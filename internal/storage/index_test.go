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

// split returns every slot of span, laid out as l, as a capacity-clipped
// view: a record body or a mirror read whole by the tests.
func (l slotLayout) split(span []byte, prefix int) [][]byte {
	out := make([][]byte, l.n)
	for i := range out {
		out[i] = l.slotIn(span, i, prefix)
	}
	return out
}
