package storage

import (
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedFS is the real file system, except that while the gate is shut a log
// segment's Sync announces itself on entered and waits for the gate to open:
// an fsync held in flight for as long as a test needs. Other files sync
// normally.
type gatedFS struct {
	osFS
	mu      sync.Mutex
	gate    chan struct{} // nil: open
	entered chan struct{}
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	f, err := g.osFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), segPrefix) {
		return f, err
	}
	return gatedFile{f, g}, nil
}

// shut closes the gate; the returned func opens it again.
func (g *gatedFS) shut() (open func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

type gatedFile struct {
	vfile
	fs *gatedFS
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.entered <- struct{}{}
		<-gate
	}
	return f.vfile.Sync()
}

// returnsWithin reports whether done delivers within d.
func returnsWithin(done <-chan error, d time.Duration) (error, bool) {
	select {
	case err := <-done:
		return err, true
	case <-time.After(d):
		return nil, false
	}
}

// TestSyncLogWaitsForTheFsyncInFlight is the round barrier's contract when
// two callers share one physical log: shard 1 appends deferred records (a
// log record and a bucket version), shard 0's SyncLog starts the fsync that
// covers them and is held inside it, and then shard 1's own SyncLog — and a
// raise of its heap's floor, which barriers the heap's last record before it
// publishes — must not return until that fsync lands. A SyncLog that found
// the obligation already
// taken by the other caller and returned at once would let the proxy issue
// reads before their schedule record is durable, or ack an epoch before its
// commit point is.
func TestSyncLogWaitsForTheFsyncInFlight(t *testing.T) {
	fsys := &gatedFS{entered: make(chan struct{}, 4)}
	g, err := openDiskGroupOpts(fsys, t.TempDir(), 2, 8, diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	shard0, shard1 := g.shards[0], g.shards[1]
	if _, err := shard1.AppendNoSync([]byte("shard 1 schedule")); err != nil {
		t.Fatal(err)
	}
	if err := shard1.WriteBuckets([]BucketWrite{{Bucket: 3, Epoch: 1, Slots: [][]byte{[]byte("slot 0"), []byte("slot 1")}}}); err != nil {
		t.Fatal(err)
	}

	open := fsys.shut()
	defer func() {
		if open != nil {
			open()
		}
	}()
	leader := make(chan error, 1)
	go func() { leader <- shard0.SyncLog() }()
	<-fsys.entered
	follower := make(chan error, 1)
	go func() { follower <- shard1.SyncLog() }()
	floor := make(chan error, 1)
	go func() { floor <- g.shards[1].raiseFloor() }()
	if err, done := returnsWithin(follower, 200*time.Millisecond); done {
		t.Fatalf("shard 1's SyncLog returned (%v) while the fsync covering its records was still in flight", err)
	}
	if err, done := returnsWithin(floor, 50*time.Millisecond); done {
		t.Fatalf("the floor raise returned (%v) while the fsync covering its heap's records was still in flight", err)
	}
	open()
	open = nil
	for what, ch := range map[string]chan error{"shard 0's SyncLog": leader, "shard 1's SyncLog": follower, "the floor raise": floor} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if st := g.Group().Stats(); st.Waves != 1 {
		t.Errorf("%d fsync waves for one round, want 1", st.Waves)
	}
}

// TestGroupMaintainsClosedShard pins that the group's own work on a heap
// ignores its shard's logical close: a maintenance pass evacuates the closed
// shard's live version and its only commit record out of a segment WAL
// truncation left behind and raises its floor, the segment goes, and a
// reopen serves the version from its new place and the committed epoch from
// the moved commit record.
func TestGroupMaintainsClosedShard(t *testing.T) {
	fsys := newCrashFS(nil)
	opts := diskOpts{workers: 1, DiskOptions: DiskOptions{LogHeap: true}, segMaxBytes: 128}
	g, err := openDiskGroupOpts(fsys, "data", 2, 8, opts)
	must(t, err)
	closed, open := g.shards[0], g.shards[1]
	must(t, closed.WriteBucket(3, 1, slots("closed shard")))
	must(t, closed.CommitEpoch(1))
	first := g.log.segs[0].base
	var last uint64
	for e := uint64(1); e <= 6; e++ {
		must(t, open.WriteBucket(int(e), e, slots(fmt.Sprintf("open shard %d", e))))
		must(t, open.CommitEpoch(e))
		last, err = open.Append([]byte("wal record"))
		must(t, err)
	}
	must(t, closed.Close())
	must(t, open.Truncate(last))
	if got := g.log.gcCandidates(); len(got) == 0 || got[0] != first {
		t.Fatalf("truncation left gc candidates %v, want the first segment %d among them", got, first)
	}
	g.MaintainOnce()
	if got := g.log.segs[0].base; got == first {
		t.Fatalf("maintenance left the first segment %d: the closed shard's heap pins it", got)
	}
	must(t, g.Close())

	g, err = openDiskGroupOpts(fsys, "data", 2, 8, opts)
	must(t, err)
	defer g.Close()
	got, err := g.shards[0].ReadSlot(3, 0)
	must(t, err)
	if string(got) != "closed shard" {
		t.Fatalf("reopened shard reads %q", got)
	}
	if c := g.shards[0].CommittedEpoch(); c != 1 {
		t.Fatalf("reopened closed shard committed through epoch %d, want 1", c)
	}

}

// waveFS is the in-memory filesystem with its log segments' fsyncs
// observed rather than performed: each logs its segment's name in synced,
// and while held is set it first announces itself on entered, waits for
// held to close and returns fail.
type waveFS struct {
	*crashFS
	mu      sync.Mutex
	held    chan struct{}
	fail    error
	entered chan struct{}
	synced  []string
}

func newWaveFS() *waveFS {
	return &waveFS{crashFS: newCrashFS(nil), entered: make(chan struct{}, 1)}
}

func (w *waveFS) OpenFile(name string, flag int, perm os.FileMode) (vfile, error) {
	f, err := w.crashFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(path.Base(name), segPrefix) {
		return f, err
	}
	return waveFile{f, w, path.Base(name)}, nil
}

// hold makes segment fsyncs wait and then return fail; the returned func
// releases them.
func (w *waveFS) hold(fail error) (release func()) {
	held := make(chan struct{})
	w.mu.Lock()
	w.held, w.fail = held, fail
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		w.held, w.fail = nil, nil
		w.mu.Unlock()
		close(held)
	}
}

type waveFile struct {
	vfile
	fs   *waveFS
	name string
}

func (f waveFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.synced = append(f.fs.synced, f.name)
	held, fail := f.fs.held, f.fs.fail
	f.fs.mu.Unlock()
	if held == nil {
		return nil
	}
	f.fs.entered <- struct{}{}
	<-held
	return fail
}

// appendSeqs appends n records to l without a barrier and returns their
// sequence numbers.
func appendSeqs(t *testing.T, l *diskLog, n int) []uint64 {
	t.Helper()
	seqs := make([]uint64, n)
	frame := testFrame("record")
	for i := range seqs {
		res, err := l.appendFramed(0, frame)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = res.seq
	}
	return seqs
}

// waitBarriers waits until l has accepted n barriers.
func waitBarriers(t *testing.T, l *diskLog, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); l.group.Stats().Barriers < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d barriers accepted", l.group.Stats().Barriers, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBarrierLeaderAndFollowers pins the fsync wave on the durable
// frontier. The first barrier above the frontier leads the wave itself;
// barriers whose records that wave covers wait for it and share its
// outcome — here a failure, which must reach every one of them — and a
// barrier on a record appended after the wave was issued waits for it too
// and gets its error rather than a fresh fsync's word. Close, called while a
// wave is held, returns only once it has landed, and a barrier after Close
// is refused.
func TestBarrierLeaderAndFollowers(t *testing.T) {
	boom := errors.New("injected fsync failure")
	fsys := newWaveFS()
	l := openTestLog(t, fsys, "failing", diskOpts{})
	defer l.Close()
	seqs := appendSeqs(t, l, 3)
	release := fsys.hold(boom)
	results := make(chan error, 4)
	go func() { results <- l.barrier(seqs[0]) }()
	<-fsys.entered
	late := appendSeqs(t, l, 1)[0]
	for _, s := range append(seqs[1:], late) {
		go func() { results <- l.barrier(s) }()
	}
	waitBarriers(t, l, 4)
	release()
	for i := 0; i < 4; i++ {
		if err := <-results; !errors.Is(err, boom) {
			t.Fatalf("barrier returned %v, want the failed fsync's error", err)
		}
	}
	if st := l.group.Stats(); st.Syncs != 1 || st.Waves != 1 || st.Barriers != 4 {
		t.Fatalf("stats %+v, want 4 barriers on 1 fsync", st)
	}

	l = openTestLog(t, fsys, "closing", diskOpts{})
	first := appendSeqs(t, l, 1)[0]
	release = fsys.hold(nil)
	led := make(chan error, 1)
	go func() { led <- l.barrier(first) }()
	<-fsys.entered
	late = appendSeqs(t, l, 1)[0]
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	if _, done := returnsWithin(closed, 100*time.Millisecond); done {
		t.Fatal("Close returned while a wave was in flight")
	}
	release()
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := l.barrier(late); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier after Close: %v, want ErrClosed", err)
	}
}

// TestBarrierWaveStraddlesRotation: records on both sides of a segment
// rotation stand on one wave, which fsyncs both segments, the older first —
// a rotation does not flush the outgoing segment — and counts one wave per
// fsync.
func TestBarrierWaveStraddlesRotation(t *testing.T) {
	fsys := newWaveFS()
	l := openTestLog(t, fsys, "data", diskOpts{segMaxBytes: 128})
	defer l.Close()
	var last uint64
	for len(l.segs) < 2 {
		last = appendSeqs(t, l, 1)[0]
	}
	fsys.synced = nil
	must(t, l.barrier(last))
	if want := []string{l.segs[0].name, l.segs[1].name}; !slices.Equal(fsys.synced, want) {
		t.Fatalf("wave synced %v, want %v", fsys.synced, want)
	}
	if st := l.group.Stats(); st.Syncs != 2 || st.Waves != 2 || st.Barriers != 1 {
		t.Fatalf("stats %+v, want 1 barrier on 2 fsyncs", st)
	}
}

// TestBarrierAllocBudget: a barrier in steady state — lead the wave or find
// the frontier past its record — allocates nothing. The records are framed
// up front, as a heap frames its own, and the segment's record tables are
// grown before the count, so a round allocates nothing at all rather than
// averaging to zero over amortised growth.
func TestBarrierAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fsys := newWaveFS()
	l := openTestLog(t, fsys, "data", diskOpts{})
	defer l.Close()
	fsys.synced = make([]string, 0, 1024)
	fa, fb := testFrame("a"), testFrame("b")
	round := func() {
		a, _ := l.appendFramed(0, fa)
		b, _ := l.appendFramed(0, fb)
		if err := l.barrier(a.seq); err != nil {
			t.Fatal(err)
		}
		if err := l.barrier(b.seq); err != nil {
			t.Fatal(err)
		}
	}
	round()
	seg := l.segs[0]
	seg.offs = slices.Grow(seg.offs, 1024)
	seg.lens = slices.Grow(seg.lens, 1024)
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("%.1f allocations per round of two barriers, want 0", allocs)
	}
	// AllocsPerRun runs one warm-up round beyond the 200 it counts.
	if st := l.group.Stats(); st.Syncs != 202 || st.Barriers != 404 {
		t.Fatalf("stats %+v, want one fsync per round of two barriers", st)
	}
}
