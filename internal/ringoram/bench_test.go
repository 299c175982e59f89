package ringoram

import (
	"fmt"
	"testing"

	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram/meta"
)

// BenchmarkSeqAccess measures sequential Ring ORAM logical ops against an
// in-memory store (pure client CPU + metadata cost).
func BenchmarkSeqAccess(b *testing.B) {
	p := Params{NumBlocks: 4096, Z: 8, S: 12, A: 8, KeySize: 24, ValueSize: 64, Seed: 1}
	seq, err := NewSeq(newStore(p), cryptoutil.KeyFromSeed([]byte("bench")), p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := seq.Write(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if _, _, err := seq.Read(fmt.Sprintf("k%d", i%512)); err != nil {
				b.Fatal(err)
			}
		} else if err := seq.Write(fmt.Sprintf("k%d", i%512), []byte("w")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanRead isolates metadata planning cost (no I/O).
func BenchmarkPlanRead(b *testing.B) {
	p := Params{NumBlocks: 4096, Z: 8, S: 64, A: 8, KeySize: 24, ValueSize: 64, Seed: 1}
	seq, err := NewSeq(newStore(p), cryptoutil.KeyFromSeed([]byte("bench")), p)
	if err != nil {
		b.Fatal(err)
	}
	o := seq.ORAM()
	b.ResetTimer()
	var steps []*meta.Plan
	for i := 0; i < b.N; i++ {
		steps, err = o.m.PlanRead("", steps[:0])
		if err != nil {
			b.Fatal(err)
		}
		// Complete immediately against fetched data to keep metadata sane.
		if _, _, err := seq.run(steps); err != nil {
			b.Fatal(err)
		}
	}
}
