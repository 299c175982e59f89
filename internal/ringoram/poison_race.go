//go:build race

package ringoram

// poison overwrites a recycled bucket arena, so a read of a buffer after
// Recycle fails authentication loudly instead of passing with the bytes it
// held (race builds only: it costs a pass over every recycled arena).
func poison(b []byte) {
	for i := range b {
		b[i] = 0xdb
	}
}
