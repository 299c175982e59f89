package storage

import (
	"errors"
	"fmt"
	"os"
	"path"
	"slices"
	"sync/atomic"
	"testing"
)

// TestGroupLayout opens a three-shard group under each DiskOptions.LogHeap
// value and checks where its files lie: the group marker at the top, the
// log's segments and meta in shard-000, and nothing in the other shards'
// directories. Both values write the same files; the flag only decides
// whether the shards expose EpochCommitBatcher. A shard-001/meta left by a
// build in which every shard kept log state is ignored: the group opens over
// it and serves the same buckets and records. The index files older builds
// kept (heapindex, and its temp file) are removed at open.
func TestGroupLayout(t *testing.T) {
	files := map[bool][]string{}
	for _, logHeap := range []bool{false, true} {
		t.Run(fmt.Sprintf("logheap=%v", logHeap), func(t *testing.T) {
			fsys := newCrashFS(nil)
			opts := diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: logHeap}, segMaxBytes: 256}
			open := func() *DiskGroup {
				t.Helper()
				g, err := openDiskGroupOpts(fsys, "data", 3, 4, opts)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := open()
			for i, s := range g.Backends() {
				if _, ok := s.(EpochCommitBatcher); ok != logHeap {
					t.Fatalf("shard %d exposes EpochCommitBatcher = %v under LogHeap %v", i, ok, logHeap)
				}
				if _, ok := any(g.shards[i]).(EpochCommitBatcher); ok {
					t.Fatalf("bare shard %d exposes EpochCommitBatcher", i)
				}
				must(t, s.WriteBucket(i, 1, slots(fmt.Sprintf("shard %d", i))))
				must(t, s.CommitEpoch(1))
				for k := 0; k < 8; k++ {
					if _, err := s.Append([]byte(fmt.Sprintf("shard %d record %d", i, k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			must(t, g.Close())

			for name := range fsys.nodes {
				files[logHeap] = append(files[logHeap], name)
			}
			slices.Sort(files[logHeap])
			top, err := fsys.List("data")
			must(t, err)
			if !slices.Contains(top, logHeapMarker) {
				t.Errorf("data holds no %s marker: %v", logHeapMarker, top)
			}
			for i := 0; i < 3; i++ {
				names, err := fsys.List(fmt.Sprintf("data/shard-%03d", i))
				must(t, err)
				segs := 0
				for _, n := range names {
					_, isSeg := parseSegName(n)
					switch {
					case i == 0 && n == metaFileName:
					case i == 0 && isSeg:
						segs++
					default:
						t.Errorf("shard-%03d holds %s", i, n)
					}
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
			stale := []string{"data/shard-000/heapindex", "data/shard-002/heapindex", "data/shard-002/heapindex.tmp"}
			for _, name := range stale {
				f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
				must(t, err)
				_, err = f.WriteAt([]byte("OBLHIX01 an older build's index"), 0)
				must(t, err)
			}
			g = open()
			defer g.Close()
			for _, name := range stale {
				if _, ok := fsys.nodes[name]; ok {
					t.Errorf("%s survived the open", name)
				}
			}

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
	if !slices.Equal(files[false], files[true]) {
		t.Errorf("the LogHeap values write different files: %v and %v", files[false], files[true])
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
// the group's, and every shard's buckets ride it: an error on it wedges
// every shard's log face and every shard's bucket face, under either
// DiskOptions.LogHeap value.
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
				for call, err := range bucketFaceErrors(s) {
					faces[call] = err
				}
				for call, err := range faces {
					if !errors.Is(err, errInjectedIO) {
						t.Errorf("shard %d %s after the log failed = %v, want the wedge error", i, call, err)
					}
				}
			}
		})
	}
}

// TestOpenKeepsZeroTail: the bytes past the tail segment's valid prefix that
// are all zeros — its reservation — survive an open as they are, with no
// Truncate, and the appends after it overwrite them; a tail holding a torn
// record's bytes there is still cut back to its valid prefix, and the cut is
// synced.
func TestOpenKeepsZeroTail(t *testing.T) {
	fsys := newCrashFS(nil)
	opts := diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 1 << 20}
	epoch := uint64(0)
	// session opens the group, checks the last epoch's bucket reads back,
	// writes and commits one more epoch in the next bucket, and returns the
	// tail segment's file and valid prefix as it closes the group.
	session := func() (*crashNode, int) {
		t.Helper()
		g, err := openDiskGroupOpts(fsys, "data", 1, 4, opts)
		must(t, err)
		lh := g.shards[0]
		if epoch > 0 {
			got, err := lh.ReadSlot(int(epoch%4), 0)
			if want := fmt.Sprintf("epoch %d", epoch); err != nil || string(got) != want {
				t.Fatalf("bucket %d reads %q, %v; want %q", epoch%4, got, err, want)
			}
		}
		epoch++
		must(t, lh.WriteBucket(int(epoch%4), epoch, slots(fmt.Sprintf("epoch %d", epoch))))
		must(t, lh.CommitEpoch(epoch))
		tail := g.log.segs[len(g.log.segs)-1]
		node, valid := fsys.nodes[path.Join("data", "shard-000", tail.name)], int(tail.size)
		must(t, g.Close())
		return node, valid
	}
	node, valid := session()
	// A reservation: zeros past the valid prefix, durable as fallocate's are.
	node.data = append(node.data[:valid], make([]byte, 4096)...)
	node.durable = append(node.durable[:0], node.data...)
	fsys.truncates = 0
	node, valid = session()
	if fsys.truncates != 0 {
		t.Fatalf("a clean reopen over a zero tail issued %d truncates", fsys.truncates)
	}
	if len(node.durable) != len(node.data) || len(node.data) <= valid {
		t.Fatalf("the tail holds %d bytes (%d durable) past a valid prefix of %d: the reservation was cut", len(node.data), len(node.durable), valid)
	}
	// A torn record past the valid prefix, inside the reservation.
	copy(node.data[valid+100:], "torn record bytes")
	node.durable = append(node.durable[:0], node.data...)
	session()
	if fsys.truncates != 1 {
		t.Fatalf("an open over a torn tail issued %d truncates, want 1", fsys.truncates)
	}
	if len(node.durable) >= valid+100 {
		t.Fatalf("the torn tail's cut is not durable: %d bytes survive, the valid prefix was %d", len(node.durable), valid)
	}
	session()
}
