//go:build race

package ringoram

// poison overwrites a slot handed back to the block pool or a reset seal
// arena's chunk, so a read through a stale reference fails to decode or
// authenticate loudly instead of passing with the bytes it held (race builds
// only: it costs a pass over everything recycled).
func poison(b []byte) {
	for i := range b {
		b[i] = 0xdb
	}
}
