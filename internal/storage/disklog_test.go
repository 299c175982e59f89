package storage

import (
	"errors"
	"fmt"
	"os"
	"path"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestGroupLayout opens a three-shard group in each layout and checks where
// its files lie: the log's segments and meta in shard-000 only, and in each
// shard nothing but the file its bucket store keeps — buckets.heap, or a
// logheap shard's heapindex. A logheap group opens no heap file at all. A
// shard-001/meta left by a build in which every shard kept log state is
// ignored: the group opens over it and serves the same buckets and records.
func TestGroupLayout(t *testing.T) {
	for _, logHeap := range []bool{false, true} {
		t.Run(fmt.Sprintf("logheap=%v", logHeap), func(t *testing.T) {
			fsys := newCrashFS(nil)
			opts := diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: logHeap, SegMaxBytes: 256}}
			open := func() *DiskGroup {
				t.Helper()
				g, err := openDiskGroupOpts(fsys, "data", 3, 4, opts)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := open()
			for i, v := range g.views {
				if _, isHeapFile := v.buckets.(*DiskBackend); isHeapFile == logHeap {
					t.Fatalf("shard %d serves its buckets from a %T", i, v.buckets)
				}
			}
			for i, s := range g.Backends() {
				must(t, s.WriteBucket(i, 1, slots(fmt.Sprintf("shard %d", i))))
				must(t, s.CommitEpoch(1))
				for k := 0; k < 8; k++ {
					if _, err := s.Append([]byte(fmt.Sprintf("shard %d record %d", i, k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			must(t, g.Close())

			store := heapFileName
			if logHeap {
				store = heapIndexName
			}
			for i := 0; i < 3; i++ {
				names, err := fsys.List(fmt.Sprintf("data/shard-%03d", i))
				must(t, err)
				segs := 0
				for _, n := range names {
					_, isSeg := parseSegName(n)
					switch {
					case n == store:
					case i == 0 && n == metaFileName:
					case i == 0 && isSeg:
						segs++
					default:
						t.Errorf("shard-%03d holds %s", i, n)
					}
				}
				if !slices.Contains(names, store) {
					t.Errorf("shard-%03d holds no %s: %v", i, store, names)
				}
				if i == 0 && (segs < 2 || !slices.Contains(names, metaFileName)) {
					t.Errorf("shard-000 holds %d segments and meta=%v, want several and a meta", segs, slices.Contains(names, metaFileName))
				}
			}

			f, err := fsys.OpenFile("data/shard-001/meta", os.O_RDWR|os.O_CREATE, 0o644)
			must(t, err)
			_, err = f.WriteAt(encodeFileHeader(metaMagic, 4, 1), 0)
			must(t, err)
			must(t, f.Sync())
			g = open()
			defer g.Close()
			for i, s := range g.Backends() {
				got, err := s.ReadSlot(i, 0)
				if err != nil || string(got) != fmt.Sprintf("shard %d", i) {
					t.Fatalf("shard %d bucket %d = %q, %v", i, i, got, err)
				}
				recs, err := s.Scan(0)
				must(t, err)
				if len(recs) != 8 || string(recs[7]) != fmt.Sprintf("shard %d record 7", i) {
					t.Fatalf("shard %d log = %q", i, recs)
				}
			}
		})
	}
}

var errInjectedIO = errors.New("injected I/O error")

// faultFS fails every write and sync of the files match picks, once armed.
type faultFS struct {
	vfs
	match func(name string) bool
	armed *atomic.Bool
}

func (f faultFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	vf, err := f.vfs.OpenFile(name, flag, perm)
	if err != nil || !f.match(path.Clean(name)) {
		return vf, err
	}
	return faultFile{vf, f.armed}, nil
}

type faultFile struct {
	vfile
	armed *atomic.Bool
}

func (f faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.armed.Load() {
		return 0, errInjectedIO
	}
	return f.vfile.WriteAt(p, off)
}

func (f faultFile) Sync() error {
	if f.armed.Load() {
		return errInjectedIO
	}
	return f.vfile.Sync()
}

// openFaultGroup opens a three-shard group whose files match picks fail once
// the returned flag is set, with a committed bucket and a log record on
// every shard.
func openFaultGroup(t *testing.T, logHeap bool, match func(string) bool) (*DiskGroup, *atomic.Bool) {
	t.Helper()
	armed := new(atomic.Bool)
	g, err := openDiskGroupOpts(faultFS{newCrashFS(nil), match, armed}, "data", 3, 4,
		diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: logHeap}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for i, s := range g.Backends() {
		must(t, s.WriteBucket(0, 1, slots(fmt.Sprintf("shard %d", i))))
		must(t, s.CommitEpoch(1))
		if _, err := s.Append([]byte("record")); err != nil {
			t.Fatal(err)
		}
	}
	return g, armed
}

// logFaceErrors runs every call of a shard's log face and returns the errors.
func logFaceErrors(s Backend) map[string]error {
	errs := map[string]error{}
	_, errs["Append"] = s.Append([]byte("more"))
	_, errs["AppendNoSync"] = s.(LogBatcher).AppendNoSync([]byte("more"))
	errs["SyncLog"] = s.(LogBatcher).SyncLog()
	_, errs["Scan"] = s.Scan(0)
	_, errs["LastSeq"] = s.LastSeq()
	errs["Truncate"] = s.Truncate(2)
	return errs
}

// bucketFaceErrors runs every call of a shard's bucket face and returns the
// errors.
func bucketFaceErrors(s Backend) map[string]error {
	errs := map[string]error{}
	_, errs["NumBuckets"] = s.NumBuckets()
	_, errs["ReadSlots"] = s.ReadSlots([]SlotRef{{Bucket: 0, Slot: 0}})
	_, errs["ReadBucket"] = s.ReadBucket(0)
	errs["WriteBuckets"] = s.WriteBuckets([]BucketWrite{{Bucket: 1, Epoch: 2, Slots: slots("e2")}})
	errs["CommitEpoch"] = s.CommitEpoch(2)
	errs["RollbackTo"] = s.RollbackTo(2)
	return errs
}

// TestWedgeDomains pins which faces an I/O error stops. The physical log is
// the group's: an error on it wedges every shard's log face, and in a
// logheap group every bucket face too, since the buckets ride the same log.
// A per-shard-file shard's heap is its own: an error on shard 1's
// buckets.heap wedges shard 1's bucket face only, while the log and the
// other shards keep serving.
func TestWedgeDomains(t *testing.T) {
	isSeg := func(name string) bool { _, ok := parseSegName(path.Base(name)); return ok }
	for _, logHeap := range []bool{false, true} {
		t.Run(fmt.Sprintf("log/logheap=%v", logHeap), func(t *testing.T) {
			g, armed := openFaultGroup(t, logHeap, isSeg)
			shards := g.Backends()
			armed.Store(true)
			if _, err := shards[0].Append([]byte("fails")); !errors.Is(err, errInjectedIO) {
				t.Fatalf("append on a failing log = %v", err)
			}
			armed.Store(false) // the wedge, not the fault, must stop what follows
			for i, s := range shards {
				faces := logFaceErrors(s)
				if logHeap {
					for call, err := range bucketFaceErrors(s) {
						faces[call] = err
					}
				}
				for call, err := range faces {
					if !errors.Is(err, errInjectedIO) {
						t.Errorf("shard %d %s after the log failed = %v, want the wedge error", i, call, err)
					}
				}
			}
		})
	}
	t.Run("heap-file", func(t *testing.T) {
		g, armed := openFaultGroup(t, false, func(name string) bool {
			return path.Base(name) == heapFileName && strings.HasSuffix(path.Dir(name), "shard-001")
		})
		shards := g.Backends()
		armed.Store(true)
		if err := shards[1].WriteBuckets([]BucketWrite{{Bucket: 2, Epoch: 2, Slots: slots("fails")}}); !errors.Is(err, errInjectedIO) {
			t.Fatalf("write to a failing heap = %v", err)
		}
		armed.Store(false)
		for call, err := range bucketFaceErrors(shards[1]) {
			if !errors.Is(err, errInjectedIO) {
				t.Errorf("shard 1 %s after its heap failed = %v, want the wedge error", call, err)
			}
		}
		for i, s := range shards {
			for call, err := range logFaceErrors(s) {
				if err != nil {
					t.Errorf("shard %d %s after shard 1's heap failed: %v", i, call, err)
				}
			}
			if i == 1 {
				continue
			}
			for call, err := range bucketFaceErrors(s) {
				if err != nil {
					t.Errorf("shard %d %s after shard 1's heap failed: %v", i, call, err)
				}
			}
		}
	})
}
