package storage

import (
	"errors"
	"os"
	"path/filepath"
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
// heap index Checkpoint, which syncs the log before it installs — must not
// return until that fsync lands. A SyncLog that found the obligation already
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
	shard0, shard1 := g.views[0], g.views[1]
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
	checkpoint := make(chan error, 1)
	go func() { checkpoint <- g.heaps[1].Checkpoint() }()
	if err, done := returnsWithin(follower, 200*time.Millisecond); done {
		t.Fatalf("shard 1's SyncLog returned (%v) while the fsync covering its records was still in flight", err)
	}
	if err, done := returnsWithin(checkpoint, 50*time.Millisecond); done {
		t.Fatalf("Checkpoint returned (%v) while the fsync covering its heap's records was still in flight", err)
	}
	open()
	open = nil
	for what, ch := range map[string]chan error{"shard 0's SyncLog": leader, "shard 1's SyncLog": follower, "Checkpoint": checkpoint} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if st := g.Group().Stats(); st.Waves != 1 {
		t.Errorf("%d fsync waves for one round, want 1", st.Waves)
	}
}

// blockingFile is a vfile whose Sync waits for release and then fails with
// failWith (nil: succeeds); a Sync announces itself on entered first, unless
// an earlier announcement is still unread.
type blockingFile struct {
	vfile
	entered  chan struct{}
	release  chan struct{}
	failWith error
}

func (f *blockingFile) Sync() error {
	if f.entered != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
		<-f.release
	}
	return f.failWith
}

// TestCommitGroupLeaderAndFollowers pins the fsync wave. The first barrier
// on an idle file leads the fsync itself; barriers whose bytes that fsync
// covers wait for it and share its outcome — here a failure, which must
// reach every one of them — and a barrier stamped after it was issued waits
// for it too and gets its error rather than a fresh fsync's word. Close,
// called while the fsync is held, returns only once every accepted barrier
// has, and a barrier after Close is refused.
func TestCommitGroupLeaderAndFollowers(t *testing.T) {
	boom := errors.New("injected fsync failure")
	f := &blockingFile{entered: make(chan struct{}, 1), release: make(chan struct{}), failWith: boom}
	g := NewCommitGroup()
	tickets := []uint64{g.Wrote(f), g.Wrote(f), g.Wrote(f)}
	results := make(chan error, 4)
	go func() { results <- g.BarrierTicket(f, tickets[0]) }()
	<-f.entered
	late := g.Wrote(f)
	for _, tk := range append(tickets[1:], late) {
		go func() { results <- g.BarrierTicket(f, tk) }()
	}
	for deadline := time.Now().Add(10 * time.Second); g.Stats().Barriers < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 4 barriers accepted", g.Stats().Barriers)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	if _, done := returnsWithin(closed, 100*time.Millisecond); done {
		t.Fatal("Close returned while accepted barriers were still waiting on their fsync")
	}
	close(f.release)
	for i := 0; i < 4; i++ {
		if err := <-results; !errors.Is(err, boom) {
			t.Fatalf("barrier returned %v, want the failed fsync's error", err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Syncs != 1 || st.Waves != 1 || st.Barriers != 4 {
		t.Fatalf("stats %+v, want 4 barriers on 1 fsync", st)
	}
	if err := g.BarrierTicket(f, g.Wrote(f)); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier after Close: %v, want ErrClosed", err)
	}
}

// TestCommitGroupBarrierAllocBudget: a barrier in steady state — stamp, then
// lead the fsync or find it already covered — allocates nothing.
func TestCommitGroupBarrierAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := &blockingFile{}
	g := NewCommitGroup()
	defer g.Close()
	round := func() {
		a, b := g.Wrote(f), g.Wrote(f)
		if err := g.BarrierTicket(f, a); err != nil {
			t.Fatal(err)
		}
		if err := g.BarrierTicket(f, b); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("%.1f allocations per round of two barriers, want 0", allocs)
	}
	// AllocsPerRun runs one warm-up round beyond the 200 it counts.
	if st := g.Stats(); st.Syncs != 202 || st.Barriers != 404 {
		t.Fatalf("stats %+v, want one fsync per round of two barriers", st)
	}
}
