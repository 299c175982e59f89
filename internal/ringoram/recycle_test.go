package ringoram

import (
	"testing"

	"obladi/internal/cryptoutil"
)

// TestRecycledBufferFailsAuthentication: in race builds Recycle poisons the
// bucket's arena, so a slot still read through a write after its buffer went
// back to the pool fails to open instead of passing with the bytes it held.
func TestRecycledBufferFailsAuthentication(t *testing.T) {
	if !raceEnabled {
		t.Skip("Recycle poisons arenas in race builds only")
	}
	o, err := New(cryptoutil.KeyFromSeed([]byte("poison")), testParams(16))
	if err != nil {
		t.Fatal(err)
	}
	w, err := o.SealFresh(0)
	if err != nil {
		t.Fatal(err)
	}
	slot := w.Slots[0]
	open := func() error {
		_, _, err := o.cdc.decodeSlotInto(o.decPlain, slot, o.binding(0, w.Ver))
		return err
	}
	if err := open(); err != nil {
		t.Fatalf("a sealed slot does not open: %v", err)
	}
	w.Recycle()
	if err := open(); err == nil {
		t.Fatal("a slot of a recycled buffer still opens: the arena was not poisoned")
	}
}
