package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/oramexec"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
	"obladi/internal/wal"
	"obladi/internal/workload"
)

// meter is the recording backend every figure puts under the latency
// injection of the store it builds: storage.Recorder's call counts and
// per-slot trace, plus the bytes of the log appends the recorder passes
// through uncounted.
type meter struct {
	*storage.Recorder
	logBytes atomic.Int64
}

func newMeter(inner storage.Backend) *meter { return &meter{Recorder: storage.NewRecorder(inner)} }

func (m *meter) Append(record []byte) (uint64, error) {
	m.logBytes.Add(int64(len(record)))
	return m.Recorder.Append(record)
}

// reset zeroes every count, so what follows a setup phase is measured alone.
func (m *meter) reset() {
	m.Recorder.Reset()
	m.logBytes.Store(0)
}

// roundTrips counts the bucket-store calls: a vectored call is one however
// many slots or buckets it carries.
func (m *meter) roundTrips() int {
	c := m.Calls()
	return c.ReadSlots + c.ReadBucket + c.WriteBuckets + c.Commit + c.Rollback
}

// bucketWrites counts the bucket versions written.
func (m *meter) bucketWrites() int {
	n := 0
	for _, ev := range m.Events() {
		if ev.Op == storage.OpWriteBucket {
			n++
		}
	}
	return n
}

// perOp divides a count by an operation count.
func perOp(count, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(count) / float64(ops)
}

// microParams builds the ORAM configuration for the Figure 10
// microbenchmarks: the paper instantiates 100K objects; quick mode shrinks
// to 4K with proportionally smaller Z/S/A.
func microParams(cfg Config, crypto bool) ringoram.Params {
	p := ringoram.Params{
		Z: 16, S: 24, A: 16,
		KeySize:           24,
		ValueSize:         64,
		Seed:              cfg.Seed,
		DisableEncryption: !crypto,
	}
	if cfg.Quick {
		p.NumBlocks = 4_000
	} else {
		p.NumBlocks = 100_000
	}
	return p
}

// microBackend builds a backend for a latency profile over the geometry, and
// the meter under its latency injection. The dummy profile injects none: the
// in-memory store alone, so what is timed is the proxy.
func microBackend(p ringoram.Params, prof storage.Profile, scale float64) (storage.Backend, *meter) {
	m := newMeter(storage.NewMemBackend(p.Geometry().NumBuckets))
	return storage.WithLatency(m, prof.Scaled(scale)), m
}

// runSeqOps runs n sequential ORAM ops and returns the duration.
func runSeqOps(seq *ringoram.Seq, mix *workload.Mix, n int, seed uint64) (time.Duration, error) {
	rng := newRand(seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		op := mix.Next(rng)
		if op.Kind == workload.OpRead {
			if _, _, err := seq.Read(op.Key); err != nil {
				return 0, err
			}
		} else if err := seq.Write(op.Key, []byte("v")); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runExecBatches drives the executor with read batches of the given size
// for nBatches epochs of batchesPerEpoch, returning ops and duration.
func runExecBatches(exec *oramexec.Executor, store storage.BucketStore, mix *workload.Mix, batchSize, batches, batchesPerEpoch int, seed uint64) (int, time.Duration, error) {
	rng := newRand(seed)
	ops := 0
	epoch := exec.Epoch()
	start := time.Now()
	for b := 0; b < batches; b++ {
		if b%batchesPerEpoch == 0 {
			epoch++
			exec.BeginEpoch(epoch)
		}
		readOps := make([]oramexec.ReadOp, batchSize)
		seen := make(map[string]bool, batchSize)
		for i := range readOps {
			// Distinct keys per batch (the proxy deduplicates upstream).
			for {
				k := mix.Next(rng).Key
				if !seen[k] {
					seen[k] = true
					readOps[i].Key = k
					break
				}
			}
		}
		plan, err := exec.PlanReadBatch(readOps)
		if err != nil {
			return 0, 0, err
		}
		if _, err := exec.Execute(plan); err != nil {
			return 0, 0, err
		}
		ops += batchSize
		if (b+1)%batchesPerEpoch == 0 {
			if _, err := exec.Flush(); err != nil {
				return 0, 0, err
			}
			if err := store.CommitEpoch(epoch); err != nil {
				return 0, 0, err
			}
		}
	}
	return ops, time.Since(start), nil
}

// microExec builds an initialized executor over a metered backend for one
// profile; the meter starts counting after the tree is initialized.
func microExec(p ringoram.Params, prof storage.Profile, scale float64, key *cryptoutil.Key, cfg oramexec.Config) (*oramexec.Executor, storage.Backend, *meter, error) {
	backend, m := microBackend(p, prof, scale)
	oram, err := oramexec.InitORAMFor(backend, key, p, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	m.reset()
	return oramexec.New(oram, backend, cfg), backend, m, nil
}

// traceDiff counts the positions at which two recorded traces differ, plus
// the length difference.
func traceDiff(a, b []storage.Event) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Fig10a reproduces Figure 10a: sequential vs parallel vs parallel+crypto
// throughput at batch size 500 across the four backends. Counted beside it:
// storage round trips per op — the parallel executor's batch crosses storage
// in a few vectored calls, the sequential client pays one per slot and
// bucket — and how far ParallelCrypto's trace is from Parallel's (encryption
// changes the bytes, never which slots are touched).
func Fig10a(cfg Config) ([]Row, error) {
	batchSize := 500
	batches := 4
	seqOps := 400
	if cfg.Quick {
		batchSize, batches, seqOps = 100, 2, 60
	}
	var rows []Row
	for _, prof := range storage.Profiles() {
		scale := cfg.LatencyScale
		// Sequential (crypto on, as in canonical Ring ORAM).
		{
			p := microParams(cfg, true)
			backend, m := microBackend(p, prof, scale)
			seq, err := ringoram.NewSeq(backend, cryptoutil.KeyFromSeed([]byte("f10a")), p)
			if err != nil {
				return nil, err
			}
			m.reset()
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			n := seqOps
			if prof.Name == "server WAN" {
				// WAN sequential ops cost ~path × RTT each; a handful
				// suffices for a rate estimate and keeps runtime sane.
				n = max(seqOps/8, 4)
			}
			d, err := runSeqOps(seq, mix, n, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows,
				Row{Experiment: "fig10a", Series: "Sequential", X: prof.Name, Value: opsPerSec(n, d), Unit: "ops/s"},
				Row{Experiment: "fig10a", Series: "Sequential round trips", X: prof.Name, Value: perOp(m.roundTrips(), n), Unit: "calls/op"})
			backend.Close()
		}
		var plainTrace []storage.Event
		for _, crypto := range []bool{false, true} {
			series := "Parallel"
			var key *cryptoutil.Key
			if crypto {
				series = "ParallelCrypto"
				key = cryptoutil.KeyFromSeed([]byte("f10a"))
			}
			p := microParams(cfg, crypto)
			exec, backend, m, err := microExec(p, prof, scale, key, oramexec.Config{})
			if err != nil {
				return nil, err
			}
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			ops, d, err := runExecBatches(exec, backend, mix, batchSize, batches, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows,
				Row{Experiment: "fig10a", Series: series, X: prof.Name, Value: opsPerSec(ops, d), Unit: "ops/s"},
				Row{Experiment: "fig10a", Series: series + " round trips", X: prof.Name, Value: perOp(m.roundTrips(), ops), Unit: "calls/op"})
			if !crypto {
				plainTrace = m.Events()
			} else {
				rows = append(rows, Row{Experiment: "fig10a", Series: "ParallelCrypto trace diff", X: prof.Name, Value: float64(traceDiff(plainTrace, m.Events())), Unit: "events"})
			}
			backend.Close()
		}
	}
	return rows, nil
}

// Fig10b reproduces Figure 10b: parallel ORAM throughput vs batch size.
func Fig10b(cfg Config) ([]Row, error) {
	return fig10bc(cfg, false)
}

// Fig10c reproduces Figure 10c: batch latency vs batch size.
func Fig10c(cfg Config) ([]Row, error) {
	return fig10bc(cfg, true)
}

// fig10bc sweeps the batch size. Beside each timing it counts storage round
// trips per op, which batching divides by the batch size.
func fig10bc(cfg Config, latency bool) ([]Row, error) {
	sizes := []int{1, 10, 100, 500, 1000, 2000}
	batches := 4
	if cfg.Quick {
		sizes = []int{1, 10, 100, 500}
		batches = 2
	}
	exp := "fig10b"
	if latency {
		exp = "fig10c"
	}
	var rows []Row
	for _, prof := range storage.Profiles() {
		p := microParams(cfg, true)
		exec, backend, m, err := microExec(p, prof, cfg.LatencyScale/4, cryptoutil.KeyFromSeed([]byte("f10b")), oramexec.Config{})
		if err != nil {
			return nil, err
		}
		mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
		for _, size := range sizes {
			if size > p.NumBlocks/2 {
				continue
			}
			// Small batches need more rounds for a stable rate estimate.
			rounds := batches
			if size < 100 {
				rounds = batches * 8
			}
			m.reset()
			ops, d, err := runExecBatches(exec, backend, mix, size, rounds, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			x := fmt.Sprint(size)
			if latency {
				per := d / time.Duration(rounds)
				rows = append(rows, Row{Experiment: exp, Series: prof.Name, X: x, Value: float64(per.Microseconds()) / 1000, Unit: "ms/batch"})
			} else {
				rows = append(rows, Row{Experiment: exp, Series: prof.Name, X: x, Value: opsPerSec(ops, d), Unit: "ops/s"})
			}
			rows = append(rows, Row{Experiment: exp, Series: prof.Name + " round trips", X: x, Value: perOp(m.roundTrips(), ops), Unit: "calls/op"})
		}
		backend.Close()
	}
	return rows, nil
}

// Fig10d reproduces Figure 10d: delayed visibility (buffered, deduplicated
// epoch write-back) vs immediate write-back, with epochs of eight batches.
// Counted: bucket writes per op, which the epoch's per-bucket dedup cuts.
func Fig10d(cfg Config) ([]Row, error) {
	batchSize, epochs := 200, 2
	if cfg.Quick {
		batchSize = 64
	}
	const batchesPerEpoch = 8
	var rows []Row
	for _, prof := range storage.Profiles() {
		for _, writeThrough := range []bool{false, true} {
			series := "Normal"
			if writeThrough {
				series = "Write Back"
			}
			p := microParams(cfg, true)
			exec, backend, m, err := microExec(p, prof, cfg.LatencyScale/4, cryptoutil.KeyFromSeed([]byte("f10d")), oramexec.Config{WriteThrough: writeThrough})
			if err != nil {
				return nil, err
			}
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			ops, d, err := runExecBatches(exec, backend, mix, batchSize, epochs*batchesPerEpoch, batchesPerEpoch, cfg.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows,
				Row{Experiment: "fig10d", Series: series, X: prof.Name, Value: opsPerSec(ops, d), Unit: "ops/s"},
				Row{Experiment: "fig10d", Series: series + " bucket writes", X: prof.Name, Value: perOp(m.bucketWrites(), ops), Unit: "writes/op"})
			backend.Close()
		}
	}
	return rows, nil
}

// Fig10e reproduces Figure 10e: relative throughput increase as the epoch
// grows from 2 to 2^7 batches. Counted: bucket writes per op, which fall as
// a longer epoch deduplicates more rewrites of the same buckets.
func Fig10e(cfg Config) ([]Row, error) {
	batchSize := 168 // one eviction per batch at A=168 in the paper; scaled
	epochSizes := []int{2, 8, 32, 128}
	if cfg.Quick {
		batchSize = 48
		epochSizes = []int{2, 8, 32}
	}
	var rows []Row
	for _, prof := range storage.Profiles() {
		var baselineRate float64
		for i, bpe := range append([]int{1}, epochSizes...) {
			p := microParams(cfg, true)
			exec, backend, m, err := microExec(p, prof, cfg.LatencyScale/8, cryptoutil.KeyFromSeed([]byte("f10e")), oramexec.Config{})
			if err != nil {
				return nil, err
			}
			mix := workload.NewMix(workload.NewUniform(p.NumBlocks), 1.0, "k")
			ops, d, err := runExecBatches(exec, backend, mix, batchSize, bpe, bpe, cfg.Seed)
			if err != nil {
				return nil, err
			}
			backend.Close()
			x := fmt.Sprint(bpe)
			rows = append(rows, Row{Experiment: "fig10e", Series: prof.Name + " bucket writes", X: x, Value: perOp(m.bucketWrites(), ops), Unit: "writes/op"})
			rate := opsPerSec(ops, d)
			if i == 0 {
				baselineRate = rate
				continue
			}
			rows = append(rows, Row{Experiment: "fig10e", Series: prof.Name, X: x, Value: rate / baselineRate, Unit: "x vs 1 batch"})
		}
	}
	return rows, nil
}

// Fig11a reproduces Figure 11a: throughput vs full-checkpoint frequency
// with durability enabled. Counted: log bytes per commit, which fall as full
// checkpoints get rarer.
func Fig11a(cfg Config) ([]Row, error) {
	freqs := []int{1, 4, 16, 64}
	profiles := []storage.Profile{storage.ProfileServer, storage.ProfileServerWAN, storage.ProfileDynamo}
	numKeys := 4_000
	txns := 160
	if cfg.Quick {
		freqs = []int{1, 4, 16}
		numKeys = 2_000
		txns = 96
	}
	var rows []Row
	for _, prof := range profiles {
		for _, freq := range freqs {
			run, err := proxyThroughput(cfg, proxyOpts{
				numKeys:    numKeys,
				profile:    prof,
				scale:      cfg.LatencyScale / 8,
				durability: true,
				ckptEvery:  freq,
				txns:       txns,
			})
			if err != nil {
				return nil, err
			}
			x := fmt.Sprint(freq)
			rows = append(rows,
				Row{Experiment: "fig11a", Series: prof.Name, X: x, Value: run.rate, Unit: "ops/s"},
				Row{Experiment: "fig11a", Series: prof.Name + " log bytes", X: x, Value: run.logBytesPerCommit, Unit: "B/commit"})
		}
	}
	return rows, nil
}

// Table11b reproduces Table 11b: recovery cost breakdown by database size.
// Its last rows put uptime on the x-axis, which the paper holds fixed: what
// recovery reads off the log must not grow with it.
func Table11b(cfg Config) ([]Row, error) {
	sizes := []int{10_000, 100_000}
	if cfg.Quick {
		sizes = []int{2_000, 10_000}
	}
	var rows []Row
	for _, n := range sizes {
		p := ringoram.Params{
			NumBlocks: n, Z: 25, S: 40, A: 25,
			KeySize: 24, ValueSize: 64, Seed: cfg.Seed,
		}
		label := fmt.Sprint(n)
		rows = append(rows, Row{Experiment: "table11b", Series: "Levels", X: label, Value: float64(p.Geometry().Levels), Unit: "levels"})

		// Slowdown: durability on vs off throughput (normal execution).
		base, err := proxyThroughput(cfg, proxyOpts{params: &p, numKeys: n, txns: 40, durability: false})
		if err != nil {
			return nil, err
		}
		durable, err := proxyThroughput(cfg, proxyOpts{params: &p, numKeys: n, txns: 40, durability: true, ckptEvery: 8})
		if err != nil {
			return nil, err
		}
		if base.rate > 0 {
			rows = append(rows, Row{Experiment: "table11b", Series: "Slowdown", X: label, Value: durable.rate / base.rate, Unit: "x"})
		}

		// Recovery time breakdown: build state, crash mid-epoch, recover.
		key := cryptoutil.KeyFromSeed([]byte("t11b"))
		backend := storage.NewMemBackend(p.Geometry().NumBuckets)
		proxy, err := core.New(backend, core.Config{
			Params: p, Key: key,
			ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 32,
			FullCheckpointEvery: 4,
		})
		if err != nil {
			return nil, err
		}
		// A few committed epochs plus one in-flight batch.
		for e := 0; e < 3; e++ {
			tx := proxy.Begin()
			for i := 0; i < 8; i++ {
				if err := tx.Write(fmt.Sprintf("k%d-%d", e, i), []byte("v")); err != nil {
					return nil, err
				}
			}
			ch := tx.CommitAsync()
			if err := proxy.EndEpoch(); err != nil {
				return nil, err
			}
			if err := proxy.WaitCommitted(); err != nil {
				return nil, err
			}
			if err := <-ch; err != nil {
				return nil, err
			}
		}
		tx := proxy.Begin()
		go func() { tx.Read("k0-0") }()
		time.Sleep(2 * time.Millisecond) // let the read enqueue
		if err := proxy.StepReadBatch(); err != nil {
			return nil, err
		}
		// Crash: measure recovery.
		logBytesBefore := logBytes(backend)
		wl, err := wal.New(backend, wal.Config{Key: key})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rec, err := wl.Recover()
		if err != nil {
			return nil, err
		}
		restored, err := ringoram.Restore(key, p, rec.Full, rec.Deltas...)
		if err != nil {
			return nil, err
		}
		if err := backend.RollbackTo(rec.CommittedEpoch); err != nil {
			return nil, err
		}
		exec := oramexec.New(restored, backend, oramexec.Config{})
		if err := exec.LoadResident(); err != nil {
			return nil, err
		}
		exec.BeginEpoch(rec.CommittedEpoch + 1)
		pathStart := time.Now()
		for _, batch := range rec.AbortedBatches {
			if err := exec.ReplayBatch(batch); err != nil {
				return nil, err
			}
		}
		if _, err := exec.Flush(); err != nil {
			return nil, err
		}
		pathTime := time.Since(pathStart)
		total := time.Since(start)
		rows = append(rows,
			Row{Experiment: "table11b", Series: "RecTime", X: label, Value: float64(total.Microseconds()) / 1000, Unit: "ms"},
			Row{Experiment: "table11b", Series: "Network", X: label, Value: float64(logBytesBefore) / 1024, Unit: "KiB"},
			Row{Experiment: "table11b", Series: "Pos", X: label, Value: float64(rec.Stats.PosEntries), Unit: "entries"},
			Row{Experiment: "table11b", Series: "Perm", X: label, Value: float64(rec.Stats.PermBuckets), Unit: "buckets"},
			Row{Experiment: "table11b", Series: "Paths", X: label, Value: float64(pathTime.Microseconds()) / 1000, Unit: "ms"},
		)
	}
	upRows, err := recoveryVsUptime(cfg)
	if err != nil {
		return nil, err
	}
	return append(rows, upRows...), nil
}

func logBytes(b *storage.MemBackend) int {
	recs, err := b.Scan(0)
	if err != nil {
		return 0
	}
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	return total
}

// uptimeAxis is the epochs-before-the-crash sweep. Every point sits at the
// same phase of the full-checkpoint cadence, so the logs compared hold the
// same records.
func uptimeAxis(cfg Config) []int {
	if cfg.Quick {
		return []int{32, 128, 512}
	}
	return []int{64, 512, 4096}
}

// runEpochs steps a manually driven proxy through n epochs, each committing
// one write over a small fixed key set and landing before the next begins.
func runEpochs(p *core.Proxy, readBatches, n int) error {
	for e := 0; e < n; e++ {
		tx := p.Begin()
		if err := tx.Write(fmt.Sprintf("up-%03d", e%256), []byte("v")); err != nil {
			return err
		}
		ack := tx.CommitAsync()
		for b := 0; b < readBatches; b++ {
			if err := p.StepReadBatch(); err != nil {
				return err
			}
		}
		if err := p.EndEpoch(); err != nil {
			return err
		}
		if err := p.WaitCommitted(); err != nil {
			return err
		}
		if err := <-ack; err != nil {
			return err
		}
	}
	return nil
}

// recoveryVsUptime crashes a proxy after a growing number of epochs and runs
// the log recovery of §8 — scan, decrypt, decode, rebuild the ORAM metadata —
// each time, counting the bytes and records it reads off the log. The log is
// cut at every full checkpoint, so both are functions of the ORAM's size and
// the public parameters, not of how long the proxy ran.
func recoveryVsUptime(cfg Config) ([]Row, error) {
	key := cryptoutil.KeyFromSeed([]byte("bench-recovery-uptime"))
	ccfg := core.Config{
		Params:      ringoram.Params{NumBlocks: 4096, Z: 8, S: 12, A: 8, KeySize: 24, ValueSize: 64, Seed: cfg.Seed},
		Key:         key,
		ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 32,
	}
	var rows []Row
	for _, uptime := range uptimeAxis(cfg) {
		backend := storage.NewMemBackend(ccfg.Params.Geometry().NumBuckets)
		p, err := core.New(backend, ccfg)
		if err != nil {
			return nil, err
		}
		// A few epochs past the axis point, so the crash is not on a
		// truncation's heels, then one read batch of the epoch that dies.
		if err := runEpochs(p, ccfg.ReadBatches, uptime+3); err != nil {
			return nil, err
		}
		if err := p.StepReadBatch(); err != nil {
			return nil, err
		}
		l, err := wal.New(backend, wal.Config{Key: key})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rec, err := l.Recover()
		if err != nil {
			return nil, err
		}
		if _, err := ringoram.Restore(key, ccfg.Params, rec.Full, rec.Deltas...); err != nil {
			return nil, err
		}
		d := time.Since(start)
		p.Close()
		x := fmt.Sprintf("%d-epochs", uptime)
		rows = append(rows,
			Row{Experiment: "table11b", Series: "LogRecovery/uptime", X: x, Value: float64(d.Microseconds()) / 1000, Unit: "ms"},
			Row{Experiment: "table11b", Series: "LogBytesRead/uptime", X: x, Value: float64(rec.Stats.BytesRead) / 1024, Unit: "KiB"},
			Row{Experiment: "table11b", Series: "RecordsReplayed/uptime", X: x, Value: float64(l.Stats().Records), Unit: "records"},
		)
	}
	return rows, nil
}
