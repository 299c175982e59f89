package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
)

// lifecycleBound is the most records one shard's recovery log may retain. A
// full checkpoint's cut runs at the end of its own epoch's commit stage, so
// just before it the log holds the previous full checkpoint, the
// FullCheckpointEvery epochs since — R read batches, a write batch and a
// checkpoint each — and the read batches of the one epoch that overlaps the
// commit (its write batch waits for the boundary slot, which the cut frees):
// C·(R+2) + R + 1. It is a function of public parameters only.
func lifecycleBound(cfg Config) uint64 {
	return uint64((cfg.FullCheckpointEvery+1)*(cfg.ReadBatches+2) - 1)
}

// finishEpoch advances the schedule, from wherever it stands, through the
// current epoch's seal.
func finishEpoch(t *testing.T, p *Proxy) {
	t.Helper()
	for e := p.Epoch(); p.Epoch() == e; {
		must(t, p.Advance())
	}
}

// soakEpoch is one epoch of the soak's load: a read riding the first batch
// and a blind write, over a fixed key set, so nothing but the log could grow.
func soakEpoch(t *testing.T, p *Proxy, cfg Config, e int, prev <-chan error) <-chan error {
	t.Helper()
	tx := p.Begin()
	f := tx.ReadAsync(fmt.Sprintf("soak-%d", (e+7)%32))
	must(t, p.StepReadBatch())
	if _, _, err := f.Value(); err != nil {
		t.Fatalf("epoch %d: read: %v", e, err)
	}
	must(t, tx.Write(fmt.Sprintf("soak-%d", e%32), []byte(fmt.Sprintf("v%d", e))))
	ack := tx.CommitAsync()
	for b := 1; b < cfg.ReadBatches; b++ {
		must(t, p.StepReadBatch())
	}
	must(t, p.EndEpoch())
	// The seal waited for the previous epoch's commit, so its ack is in.
	if prev != nil {
		if err := <-prev; err != nil {
			t.Fatalf("epoch %d: commit: %v", e-1, err)
		}
	}
	return ack
}

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLogLifecycleSoakMem steps ten thousand pipelined epochs on a small
// in-memory ORAM. The retained log must sit under the public bound at every
// epoch, the proxy's own count of it must match what the store holds, and
// the live heap must be flat from epoch 2 000 on: recovery cost and memory
// are functions of the parameters, not of uptime. (-short runs 3 000.)
func TestLogLifecycleSoakMem(t *testing.T) {
	cfg := testConfig(301)
	cfg.Boundary = BoundaryPipelined
	cfg.FullCheckpointEvery = 16
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bound := lifecycleBound(cfg)
	epochs, heapFrom := 10000, 2000
	if testing.Short() {
		epochs, heapFrom = 3000, 1000
	}
	var ack <-chan error
	var heapBase uint64
	for e := 1; e <= epochs; e++ {
		ack = soakEpoch(t, p, cfg, e, ack)
		l := p.Stats().Logs[0]
		if l.Records > bound {
			t.Fatalf("epoch %d: log retains %d records, bound %d", e, l.Records, bound)
		}
		if e%1000 == 0 {
			must(t, <-ack) // quiesce: nothing in flight while the store is counted
			p.committers.Wait()
			ack = nil
			recs, err := backend.Scan(0)
			must(t, err)
			if l = p.Stats().Logs[0]; uint64(len(recs)) != l.Records {
				t.Fatalf("epoch %d: store holds %d records, the proxy counts %d", e, len(recs), l.Records)
			}
			if want := uint64(e/cfg.FullCheckpointEvery - 1); l.Truncations < want {
				t.Fatalf("epoch %d: %d truncations, want at least %d", e, l.Truncations, want)
			}
		}
		if e == heapFrom {
			heapBase = liveHeap()
		}
	}
	// Thousands more epochs of an unbounded log would be tens of MB.
	if got := liveHeap(); got > heapBase+2<<20 {
		t.Fatalf("live heap grew from %d to %d bytes between epoch %d and %d", heapBase, got, heapFrom, epochs)
	}
}

// dirSize sums the regular files under dir.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a segment collected mid-walk
		}
		if err == nil {
			n += info.Size()
		}
		return err
	})
	must(t, err)
	return n
}

// TestLogLifecycleSoakDisk is the soak on a 2-shard logheap disk group: the
// truncation floor must carry through the shared log to the segment files,
// with the heap's copy-forward GC freeing what the WAL no longer pins, so the
// data directory's size is flat too.
func TestLogLifecycleSoakDisk(t *testing.T) {
	cfg := testConfig(302)
	cfg.Boundary = BoundaryPipelined
	cfg.FullCheckpointEvery = 8
	dir := t.TempDir()
	// Small segments, so the floor crosses many of them.
	g, err := storage.OpenDiskGroupOpts(dir, 2, cfg.Params.Geometry().NumBuckets,
		storage.DiskOptions{LogHeap: true, SegMaxBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	p, err := NewSharded(g.Backends(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bound := lifecycleBound(cfg)
	epochs := 1600
	if testing.Short() {
		epochs = 400
	}
	var ack <-chan error
	var early, late int64 // largest directory size seen in each half
	for e := 1; e <= epochs; e++ {
		ack = soakEpoch(t, p, cfg, e, ack)
		for i, l := range p.Stats().Logs {
			if l.Records > bound {
				t.Fatalf("epoch %d: shard %d log retains %d records, bound %d", e, i, l.Records, bound)
			}
		}
		if e%20 == 0 && e > epochs/4 {
			size := dirSize(t, dir)
			if e <= epochs*5/8 {
				early = max(early, size)
			} else {
				late = max(late, size)
			}
		}
	}
	t.Logf("data dir peaked at %d bytes in epochs %d..%d and %d bytes after", early, epochs/4, epochs*5/8, late)
	if late > early+early/4 {
		t.Fatalf("data directory grew from a peak of %d to a peak of %d bytes", early, late)
	}
}

// historyBackend is a store that remembers every log record ever appended,
// so a test can ask what recovery would have seen had the log never been
// truncated. Appends and truncations are serialized with crashImages, which
// therefore captures a consistent crash image at any instant, background
// committer or not.
type historyBackend struct {
	storage.Backend
	mu      sync.Mutex
	history [][]byte
}

func (h *historyBackend) Append(rec []byte) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	seq, err := h.Backend.Append(rec)
	if err == nil {
		h.history = append(h.history, rec)
	}
	return seq, err
}

func (h *historyBackend) Truncate(before uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.Backend.Truncate(before)
}

// crashImages returns every shard's log as a crash at this instant would
// leave it, and as it would have been left without truncation, each as a
// fresh log store. All the stores are held at once: the committer may be
// between one shard's append or truncation and the next's, and recovery
// reads one instant, not one per shard.
func crashImages(t *testing.T, hs []*historyBackend) (truncated, whole []storage.LogStore) {
	t.Helper()
	for _, h := range hs {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	fill := func(recs [][]byte) storage.LogStore {
		m := storage.NewMemBackend(1)
		for _, r := range recs {
			if _, err := m.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for _, h := range hs {
		recs, err := h.Backend.Scan(0)
		must(t, err)
		truncated, whole = append(truncated, fill(recs)), append(whole, fill(h.history))
	}
	return truncated, whole
}

// recoveredState rebuilds the ORAM metadata a recovery describes, in a
// canonical form: the restored client's own full checkpoint image, which
// covers every bucket, the position map, the stash and the counters.
func recoveredState(t *testing.T, cfg Config, shard int, rec *wal.Recovery) []byte {
	t.Helper()
	sp := cfg.Params
	sp.Seed += uint64(shard)
	o, err := ringoram.Restore(cfg.Key, sp, rec.Full, rec.Deltas...)
	must(t, err)
	img, err := o.EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
	must(t, err)
	return img
}

// checkRecoveryEquivalence recovers every shard twice — from the truncated
// crash image and from the never-truncated history — and requires the same
// committed epoch, the same ORAM state and the same batches to replay.
func checkRecoveryEquivalence(t *testing.T, cfg Config, stores []*historyBackend, when string) {
	t.Helper()
	var floor uint64
	truncated, whole := crashImages(t, stores)
	for i := range stores {
		wcfg, err := WALConfigFor(cfg, i, len(stores))
		must(t, err)
		var recs [2]*wal.Recovery
		for j, store := range []storage.LogStore{truncated[i], whole[i]} {
			l, err := wal.New(store, wcfg)
			must(t, err)
			if i == 0 {
				recs[j], err = l.Recover()
			} else {
				recs[j], err = l.RecoverWithFloor(floor)
			}
			if err != nil {
				t.Fatalf("%s: shard %d recovery (history=%v): %v", when, i, j == 1, err)
			}
		}
		got, want := recs[0], recs[1]
		if i == 0 {
			floor = got.CommittedEpoch
		}
		if got.CommittedEpoch != want.CommittedEpoch || got.HasCommit != want.HasCommit || got.MaxAbortedEpoch != want.MaxAbortedEpoch {
			t.Fatalf("%s: shard %d recovers to epoch %d (commit %v, aborted through %d); from the whole history epoch %d (commit %v, aborted through %d)",
				when, i, got.CommittedEpoch, got.HasCommit, got.MaxAbortedEpoch, want.CommittedEpoch, want.HasCommit, want.MaxAbortedEpoch)
		}
		if !reflect.DeepEqual(got.AbortedBatches, want.AbortedBatches) {
			t.Fatalf("%s: shard %d replays %d batches from the truncated log, %d from the whole history", when, i, len(got.AbortedBatches), len(want.AbortedBatches))
		}
		if !bytes.Equal(recoveredState(t, cfg, i, got), recoveredState(t, cfg, i, want)) {
			t.Fatalf("%s: shard %d: ORAM state from the truncated log differs from the whole history's", when, i)
		}
		if got.Stats.BytesRead > want.Stats.BytesRead {
			t.Fatalf("%s: shard %d: truncated recovery read %d bytes, whole history %d", when, i, got.Stats.BytesRead, want.Stats.BytesRead)
		}
	}
}

func historyBackends(cfg Config, n int) ([]*historyBackend, []storage.Backend) {
	hs := make([]*historyBackend, n)
	stores := make([]storage.Backend, n)
	for i := range hs {
		hs[i] = &historyBackend{Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)}
		stores[i] = hs[i]
	}
	return hs, stores
}

// TestRecoveryEquivalenceAfterTruncation crashes a pipelined proxy at random
// points of random epochs, across restarts, and checks each crash image
// against the untruncated history; every restart then really recovers from
// the truncated log and must serve all acknowledged writes.
func TestRecoveryEquivalenceAfterTruncation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-shard", shards), func(t *testing.T) {
			cfg := testConfig(310 + uint64(shards))
			cfg.Boundary = BoundaryPipelined
			cfg.FullCheckpointEvery = 4
			hs, stores := historyBackends(cfg, shards)
			rng := rand.New(rand.NewPCG(uint64(shards), 311))
			acked := map[string]string{}
			for round := 0; round < 12; round++ {
				p, err := NewSharded(stores, cfg)
				if err != nil {
					t.Fatalf("round %d: recovery: %v", round, err)
				}
				if round > 0 {
					var keys []string
					for k := range acked {
						keys = append(keys, k)
					}
					if got := readAll(t, p, keys...); !reflect.DeepEqual(got, acked) {
						t.Fatalf("round %d: recovered %v, acknowledged %v", round, got, acked)
					}
				}
				// Run a random number of epochs, then stop at a random slot
				// of the next one with its commit stage still in flight.
				type write struct {
					k, v string
					ack  <-chan error
				}
				var pending []write
				for e, n := 0, 1+rng.IntN(3*cfg.FullCheckpointEvery); e < n; e++ {
					tx := p.Begin()
					w := write{k: fmt.Sprintf("eq-%d", rng.IntN(16)), v: fmt.Sprintf("r%d-e%d", round, e)}
					must(t, tx.Write(w.k, []byte(w.v)))
					w.ack = tx.CommitAsync()
					pending = append(pending, w)
					finishEpoch(t, p)
				}
				for b, n := 0, rng.IntN(cfg.ReadBatches+1); b < n; b++ {
					must(t, p.Advance()) // the epoch just opened: read-batch slots
				}
				checkRecoveryEquivalence(t, cfg, hs, fmt.Sprintf("round %d", round))
				must(t, p.Close()) // the in-flight commit lands; the open epoch dies
				for _, w := range pending {
					if err := <-w.ack; err == nil {
						acked[w.k] = w.v
					}
				}
			}
		})
	}
}

// TestRecoveryEquivalenceLiveMetadata is the record format's differential
// test: at random epochs of a seeded pipelined run — reads, writes and
// deletes over every shard, full checkpoints every fourth epoch and
// touched/rewritten deltas between — each shard's log must restore to exactly
// the metadata the live ORAM holds. The comparison is the client's own full
// checkpoint image, which covers every bucket's permutation, resident keys,
// valid map, count and version, the position map, the stash and the counters.
func TestRecoveryEquivalenceLiveMetadata(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-shard", shards), func(t *testing.T) {
			cfg := testConfig(340 + uint64(shards))
			cfg.Boundary = BoundaryPipelined
			cfg.FullCheckpointEvery = 4
			stores := make([]storage.Backend, shards)
			for i := range stores {
				stores[i] = storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
			}
			p, err := NewSharded(stores, cfg)
			must(t, err)
			defer p.Close()
			rng := rand.New(rand.NewPCG(uint64(shards), 341))
			key := func() string { return fmt.Sprintf("live-%d", rng.IntN(48)) }
			checked := 0
			for e := 0; e < 48; e++ {
				var acks []<-chan error
				var reads []*Future
				txs := make([]*Txn, 1+rng.IntN(3))
				for i := range txs {
					txs[i] = p.Begin()
					reads = append(reads, txs[i].ReadAsync(key()))
				}
				must(t, p.StepReadBatch())
				for i, tx := range txs {
					if _, _, err := reads[i].Value(); err != nil {
						t.Fatalf("epoch %d: read: %v", e, err)
					}
					if k := key(); rng.IntN(5) == 0 {
						must(t, tx.Delete(k))
					} else {
						must(t, tx.Write(k, []byte(fmt.Sprintf("e%d-%d", e, i))))
					}
					acks = append(acks, tx.CommitAsync())
				}
				finishEpoch(t, p)
				if rng.IntN(3) != 0 {
					continue
				}
				// Quiesce: once the epoch's commits are acknowledged its
				// checkpoint is durable on every shard, and until the next
				// batch is stepped nothing touches the live metadata.
				for _, ack := range acks {
					if err := <-ack; err != nil && !errors.Is(err, ErrAborted) {
						t.Fatalf("epoch %d: commit: %v", e, err)
					}
				}
				var floor uint64
				for i, store := range stores {
					wcfg, err := WALConfigFor(cfg, i, shards)
					must(t, err)
					l, err := wal.New(store, wcfg)
					must(t, err)
					rec, err := l.RecoverWithFloor(floor)
					if err != nil {
						t.Fatalf("epoch %d: shard %d recovery: %v", e, i, err)
					}
					if i == 0 {
						floor = rec.CommittedEpoch
					}
					if rec.CommittedEpoch != floor || len(rec.AbortedBatches) != 0 {
						t.Fatalf("epoch %d: shard %d recovers to epoch %d with %d batches to replay; want the quiesced epoch %d and none",
							e, i, rec.CommittedEpoch, len(rec.AbortedBatches), floor)
					}
					live, err := p.shards[i].exec.ORAM().EncodeCheckpoint(true, ringoram.CheckpointPad{}, 0, 0)
					must(t, err)
					if !bytes.Equal(recoveredState(t, cfg, i, rec), live) {
						t.Fatalf("epoch %d: shard %d: metadata restored from a full checkpoint and %d deltas differs from the live ORAM's",
							e, i, len(rec.Deltas))
					}
					if len(rec.Deltas) > 0 {
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no comparison went through a delta checkpoint")
			}
		})
	}
}

// TestRecoveryEquivalenceTornCommitAfterTruncation tears the 4-shard commit
// protocol in an epoch whose checkpoint is full, with every log already
// truncated at the previous full checkpoint: the coordinator holds the
// epoch's committing checkpoint, the other shards their prepared ones, no
// store has retired the epoch. Each follower must recover through the
// coordinator's floor from its truncated log exactly as from its whole
// history, and the epoch's truncation — which never ran — must not be needed.
func TestRecoveryEquivalenceTornCommitAfterTruncation(t *testing.T) {
	cfg := testConfig(320)
	cfg.FullCheckpointEvery = 4
	hs, stores := historyBackends(cfg, 4)
	p, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	// Epochs 1..7: the full checkpoints of epochs 0 and 4 are behind us and
	// epoch 4's commit stage has cut every log at its own.
	for e := 1; e <= 7; e++ {
		kv := map[string]string{}
		for s := 0; s < 4; s++ {
			kv[keysForShard(s, 4, 1)[0]] = fmt.Sprintf("e%d", e)
		}
		commitKV(t, p, kv)
		for k, v := range kv {
			want[k] = v
		}
	}
	for i, l := range p.Stats().Logs {
		if l.Truncations == 0 || l.FloorSeq == 1 {
			t.Fatalf("shard %d log never truncated: %+v", i, l)
		}
	}
	crash := errors.New("injected crash after coordinator commit")
	p.testCommitHook = func() error { return crash }
	tx := p.Begin()
	for s := 0; s < 4; s++ {
		k := keysForShard(s, 4, 1)[0]
		must(t, tx.Write(k, []byte("torn")))
		want[k] = "torn" // the coordinator committed: the epoch is global
	}
	tx.CommitAsync()
	if err := p.EndEpoch(); !errors.Is(err, crash) { // epoch 8: a full checkpoint
		t.Fatalf("EndEpoch under injected crash: %v", err)
	}
	checkRecoveryEquivalence(t, cfg, hs, "torn commit")

	p2, err := NewSharded(stores, cfg)
	if err != nil {
		t.Fatalf("recovery from torn commit over truncated logs: %v", err)
	}
	defer p2.Close()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	if got := readAll(t, p2, keys...); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestRetireIssuesOnlyTruncate pins the scan-free property: over many epochs
// the recovery log's store sees appends and exactly one Truncate per full
// checkpoint — never a Scan or a LastSeq, which is what a decrypting,
// log-walking truncation would need.
func TestRetireIssuesOnlyTruncate(t *testing.T) {
	cfg := testConfig(330)
	cfg.FullCheckpointEvery = 4
	cs := &callCounter{Backend: storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)}
	p, err := New(cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cs.reset() // bootstrap's recovery probe scans; steady state must not
	for e := 1; e <= 41; e++ {
		commitKV(t, p, map[string]string{"k": fmt.Sprint(e)})
	}
	if cs.scans != 0 || cs.lastSeqs != 0 {
		t.Fatalf("steady state issued %d Scan and %d LastSeq calls", cs.scans, cs.lastSeqs)
	}
	if cs.truncates != 10 { // the checkpoints of epochs 4, 8, …, 40
		t.Fatalf("%d Truncate calls over 41 epochs at cadence 4, want 10", cs.truncates)
	}
}

// callCounter counts the log-store calls a truncation could hide behind.
// The proxy under test is stepped from one goroutine with a synchronous
// boundary, so plain counters suffice.
type callCounter struct {
	storage.Backend
	scans, lastSeqs, truncates int
}

func (c *callCounter) reset() { c.scans, c.lastSeqs, c.truncates = 0, 0, 0 }

func (c *callCounter) Scan(from uint64) ([][]byte, error) {
	c.scans++
	return c.Backend.Scan(from)
}

func (c *callCounter) LastSeq() (uint64, error) {
	c.lastSeqs++
	return c.Backend.LastSeq()
}

func (c *callCounter) Truncate(before uint64) error {
	c.truncates++
	return c.Backend.Truncate(before)
}
