package storage

import (
	"fmt"
	"testing"
	"time"
)

// buildRecoveryStore populates dir with a one-shard group whose bucket
// versions and recovery log fill many segments, sized so that segment replay
// dominates a reopen.
func buildRecoveryStore(tb testing.TB, dir string) {
	tb.Helper()
	b, err := openDiskStore(osFS{}, dir, 64, diskOpts{segMaxBytes: 32 << 10, autoMaintain: true})
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, 512)
	for e := uint64(1); e <= 16; e++ {
		var writes []BucketWrite
		for bucket := 0; bucket < 64; bucket++ {
			writes = append(writes, BucketWrite{Bucket: bucket, Epoch: e, Slots: [][]byte{payload, payload}})
		}
		if err := b.WriteBuckets(writes); err != nil {
			tb.Fatal(err)
		}
		for r := 0; r < 64; r++ {
			if _, err := b.Append(payload); err != nil {
				tb.Fatal(err)
			}
		}
		if err := b.CommitEpoch(e); err != nil {
			tb.Fatal(err)
		}
	}
	if len(b.log.segs) < 8 {
		tb.Fatalf("recovery store built only %d segments; replay would not dominate", len(b.log.segs))
	}
	if err := b.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecovery measures a reopen — segmented log replay with crc
// verification, which rebuilds the heap's index from its records — at 1, 2
// and 4 recovery workers. Workers == 1 is the serial baseline; higher counts
// fan the per-segment scan out pFSCK-style. The timer covers the open alone;
// close-ns/op reports the Close that follows it.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	buildRecoveryStore(b, dir)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var closing time.Duration
			for i := 0; i < b.N; i++ {
				r, err := openDiskStore(osFS{}, dir, 0, diskOpts{workers: workers, autoMaintain: true})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				start := time.Now()
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				closing += time.Since(start)
				b.StartTimer()
			}
			b.ReportMetric(float64(closing.Nanoseconds())/float64(b.N), "close-ns/op")
		})
	}
}

// BenchmarkRemoteReadSlot measures one pipelined TCP slot read.
func BenchmarkRemoteReadSlot(b *testing.B) {
	backend := NewMemBackend(16)
	for i := 0; i < 16; i++ {
		if err := backend.WriteBucket(i, 1, [][]byte{make([]byte, 256)}); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadSlot(i%16, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteReadSlotParallel measures pipelining headroom.
func BenchmarkRemoteReadSlotParallel(b *testing.B) {
	backend := NewMemBackend(16)
	for i := 0; i < 16; i++ {
		if err := backend.WriteBucket(i, 1, [][]byte{make([]byte, 256)}); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.ReadSlot(i%16, 0); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
