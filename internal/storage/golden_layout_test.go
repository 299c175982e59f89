package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"sort"
	"strings"
	"testing"
)

// goldenLogDigest is the SHA-256 of what goldenWorkload leaves in the
// physical log's files: shard-000's segments and meta, named and in name
// order. A change to how the log or its meta is laid out on disk changes it.
const goldenLogDigest = "7a48ee0b81910382caa7137c5c2eaa3dbcbfa41afb2cb1e461234675e20a3573"

// goldenWorkload drives a two-shard logheap group on fsys through a fixed
// sequence: bucket writes (each version of one slot length), synced and
// deferred log appends, unified epoch commits, a truncation of both streams
// and one maintenance pass (segment GC), then closes the group.
func goldenWorkload(t *testing.T, fsys *crashFS) {
	t.Helper()
	g, err := OpenCrashLogHeapGroup(fsys, 2, 7, 512)
	if err != nil {
		t.Fatal(err)
	}
	shards := g.Backends()
	for e := uint64(1); e <= 6; e++ {
		for i, s := range shards {
			var writes []BucketWrite
			for k := 0; k < 3; k++ {
				bucket := (int(e) + 2*k + i) % 7
				writes = append(writes, BucketWrite{Bucket: bucket, Epoch: e, Slots: [][]byte{
					[]byte(fmt.Sprintf("s%d-e%d-b%d-slot0-%s", i, e, bucket, strings.Repeat("x", k*7))),
					[]byte(fmt.Sprintf("s%d-e%d-b%d-slot1-%s", i, e, bucket, strings.Repeat("x", k*7))),
				}})
			}
			must(t, s.WriteBuckets(writes))
			rec := []byte(fmt.Sprintf("s%d-wal-%d", i, e))
			if e%2 == 0 {
				_, err = s.Append(rec)
			} else {
				_, err = s.(LogBatcher).AppendNoSync(rec)
			}
			must(t, err)
		}
		for _, s := range shards {
			must(t, s.(EpochCommitBatcher).CommitEpochNoSync(e))
		}
		must(t, shards[int(e)%2].(LogBatcher).SyncLog())
		switch e {
		case 3:
			for _, s := range shards {
				last, err := s.LastSeq()
				must(t, err)
				must(t, s.Truncate(last))
			}
		case 5:
			before := g.SegmentCount()
			g.MaintainOnce()
			if after := g.SegmentCount(); after >= before {
				t.Fatalf("maintenance freed no segment (%d -> %d): the workload lost its GC pass", before, after)
			}
		}
	}
	must(t, g.Close())
}

// TestLogFilesGoldenBytes pins the bytes of the physical log's files across
// changes to the code that owns them.
func TestLogFilesGoldenBytes(t *testing.T) {
	fsys := newCrashFS(nil)
	goldenWorkload(t, fsys)
	var names []string
	for name := range fsys.nodes {
		base := path.Base(name)
		if path.Dir(name) == "data/shard-000" && (base == metaFileName || strings.HasPrefix(base, segPrefix)) {

			names = append(names, name)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, len(fsys.nodes[name].data))
		h.Write(fsys.nodes[name].data)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("files: %v", names)
	if got != goldenLogDigest {
		t.Fatalf("log files digest %s, want %s", got, goldenLogDigest)
	}
}

// TestLogStreamScanCopiesOnlyItsStream pins what one stream's Scan costs on a
// log it shares: a copy of each of its own records and the reads of the
// segments they lie in. The other shard's log records and both shards'
// bucket versions sit between them and must not be copied.
func TestLogStreamScanCopiesOnlyItsStream(t *testing.T) {
	const own = 8
	g, err := OpenCrashLogHeapGroup(newCrashFS(nil), 2, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	shards := g.Backends()
	for i := 0; i < own; i++ {
		_, err := shards[0].Append([]byte(fmt.Sprintf("own-%d", i)))
		must(t, err)
		for k := 0; k < 10; k++ {
			_, err := shards[1].Append([]byte(fmt.Sprintf("other-%d-%d", i, k)))
			must(t, err)
			must(t, shards[k%2].WriteBucket(k%7, uint64(i+1), [][]byte{[]byte("version")}))
		}
	}
	if n := g.SegmentCount(); n != 1 {
		t.Fatalf("log spans %d segments, want 1", n)
	}
	var recs [][]byte
	allocs := testing.AllocsPerRun(20, func() {
		recs, err = shards[0].Scan(0)
	})
	must(t, err)
	if len(recs) != own || string(recs[0]) != "own-0" || string(recs[own-1]) != fmt.Sprintf("own-%d", own-1) {
		t.Fatalf("Scan returned %d records %q", len(recs), recs)
	}
	t.Logf("Scan of %d own records among %d others: %.0f allocations", own, 20*own, allocs)
	// own copies, the result slice and one segment read.
	if allocs > own+2 {
		t.Errorf("Scan of %d own records among %d others costs %.0f allocations, want at most %d", own, 20*own, allocs, own+2)
	}
}
