package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/replica"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// Failover measures the price and payoff of proxy hot-standby replication
// (beyond the paper): committed-transaction throughput on the mem profile in
// three modes — standalone, replicated (local-durable acks, stream is warmth
// only), and replica-acked (commit acks gated on standby receipt) — plus the
// measured failover timeline with a short lease: detection (lease expiry
// after the primary dies), promotion (fence + top-up + wal recovery), and
// time to the first transaction committed on the new primary.
//
//	throughput  committed txns/s per replication mode
//	overhead    replication cost vs standalone, percent
//	failover    detect / promote / first-commit milliseconds
//	promote/uptime  promotion time and standby log size after 64 / 512 /
//	            4096 epochs of primary uptime — flat, because the standby's
//	            log copies follow the primary's truncations
//
// The committed BENCH_failover.json pins the acceptance bar: replica-acked
// throughput within 15% of standalone on the mem profile.
func Failover(cfg Config) ([]Row, error) {
	cfg.setDefaults()
	dur := 3 * time.Second
	if cfg.Quick {
		dur = time.Second
	}
	modes := []string{"standalone", "replicated", "replica-acked"}
	tput := make(map[string]float64, len(modes))
	var rows []Row
	for _, mode := range modes {
		rate, err := failoverThroughput(cfg.Seed, mode, dur)
		if err != nil {
			return nil, fmt.Errorf("failover %s: %w", mode, err)
		}
		tput[mode] = rate
		rows = append(rows, Row{Experiment: "failover", Series: "throughput", X: mode, Value: rate, Unit: "txn/s", Shards: 2})
	}
	for _, mode := range modes[1:] {
		pct := 100 * (1 - tput[mode]/tput["standalone"])
		rows = append(rows, Row{Experiment: "failover", Series: "overhead", X: mode, Value: pct, Unit: "% vs standalone", Shards: 2})
	}
	fo, err := failoverTimeline(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("failover timeline: %w", err)
	}
	up, err := promoteVsUptime(cfg)
	if err != nil {
		return nil, fmt.Errorf("failover promote vs uptime: %w", err)
	}
	return append(append(rows, fo...), up...), nil
}

// failoverParams is the shared mem-profile geometry: small enough that the
// proxy, not the backend, is the bottleneck, write batches wide enough to
// carry real throughput.
func failoverCoreConfig(seed uint64) core.Config {
	return core.Config{
		Params: ringoram.Params{
			NumBlocks: 2048, Z: 8, S: 12, A: 8,
			KeySize: 24, ValueSize: 128, Seed: seed,
		},
		Key:            cryptoutil.KeyFromSeed([]byte("bench-failover")),
		ReadBatches:    4,
		ReadBatchSize:  16,
		WriteBatchSize: 32,
		BatchInterval:  500 * time.Microsecond,
	}
}

// haHarness is one in-process primary (+ optional standby) on the mem
// profile, the same topology the binaries deploy minus the client wire.
type haHarness struct {
	proxy   *core.Proxy
	sender  *replica.Sender
	standby *replica.Standby
	views   []storage.Backend
	base    core.Config
}

func newHAHarness(seed uint64, mode string, lease time.Duration, manual bool) (*haHarness, error) {
	const shards = 2
	ccfg := failoverCoreConfig(seed)
	if manual {
		ccfg.BatchInterval = 0 // the caller steps the schedule
	}
	h := &haHarness{base: ccfg}
	raw := make([]storage.Backend, shards)
	h.views = make([]storage.Backend, shards)
	for i := range raw {
		raw[i] = storage.NewMemBackend(ccfg.Params.Geometry().NumBuckets)
		h.views[i] = raw[i]
	}
	if mode != "standalone" {
		var err error
		h.sender, err = replica.NewSender("127.0.0.1:0", replica.SenderConfig{
			Shards:         shards,
			Acked:          mode == "replica-acked",
			HeartbeatEvery: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		ccfg.Replicator = h.sender
		for i := range raw {
			view, _, err := raw[i].(storage.Fenceable).AcquireFence()
			if err != nil {
				return nil, err
			}
			h.views[i] = view
		}
		h.standby, err = replica.NewStandby(h.sender.Addr(), raw, replica.StandbyConfig{
			LeaseTimeout: lease,
			RedialEvery:  5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		deadline := time.Now().Add(5 * time.Second)
		for !h.standby.Stats().Connected {
			if time.Now().After(deadline) {
				return nil, errors.New("standby never attached")
			}
			time.Sleep(time.Millisecond)
		}
	}
	p, err := core.NewSharded(h.views, ccfg)
	if err != nil {
		return nil, err
	}
	h.proxy = p
	return h, nil
}

func (h *haHarness) close() {
	if h.standby != nil {
		h.standby.Stop()
	}
	if h.sender != nil {
		h.sender.Close()
	}
	h.proxy.Close()
}

// failoverThroughput drives write-only commits from a small worker pool for
// dur and reports committed txns/s.
func failoverThroughput(seed uint64, mode string, dur time.Duration) (float64, error) {
	h, err := newHAHarness(seed, mode, time.Second, false)
	if err != nil {
		return 0, err
	}
	defer h.close()
	const workers = 8
	var committed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := h.proxy.Begin()
				if err := tx.Write(fmt.Sprintf("w%d-%06d", w, i%512), val); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() == nil {
					committed.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(committed.Load()) / elapsed.Seconds(), nil
}

// failoverTimeline kills a replicated primary and times each leg of the
// handoff: lease-expiry detection, promotion (fence + top-up + recovery),
// and the first transaction committed on the promoted proxy.
func failoverTimeline(seed uint64) ([]Row, error) {
	const lease = 250 * time.Millisecond
	h, err := newHAHarness(seed, "replicated", lease, false)
	if err != nil {
		return nil, err
	}
	defer h.close()
	for i := 0; i < 50; i++ {
		tx := h.proxy.Begin()
		if err := tx.Write(fmt.Sprintf("pre-%04d", i), []byte("v")); err != nil {
			tx.Abort()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}

	// The primary dies: stream and heartbeats stop; the proxy is abandoned.
	killed := time.Now()
	h.sender.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.standby.WaitPrimaryDown(ctx); err != nil {
		return nil, err
	}
	detect := time.Since(killed)

	base, err := core.WALConfigFor(h.base, 0, 2)
	if err != nil {
		return nil, err
	}
	res, err := h.standby.Promote(base)
	if err != nil {
		return nil, err
	}
	if res.Recoveries == nil {
		return nil, errors.New("promotion found no committed state")
	}
	promoted := time.Since(killed)

	ccfg := h.base
	ccfg.Replicator = nil
	p2, err := core.NewShardedFromRecoveries(res.Stores, ccfg, res.Recoveries)
	if err != nil {
		return nil, err
	}
	defer p2.Close()
	tx := p2.Begin()
	if err := tx.Write("post-failover", []byte("v")); err != nil {
		tx.Abort()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	firstCommit := time.Since(killed)

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return []Row{
		{Experiment: "failover", Series: "failover", X: "detect (250ms lease)", Value: ms(detect), Unit: "ms", Shards: 2},
		{Experiment: "failover", Series: "failover", X: "promote", Value: ms(promoted), Unit: "ms", Shards: 2},
		{Experiment: "failover", Series: "failover", X: "first-commit", Value: ms(firstCommit), Unit: "ms", Shards: 2},
	}, nil
}

// promoteVsUptime runs a replicated primary for a growing number of epochs,
// kills it, and times the standby's promotion (fence, top-up, wal recovery)
// and the new primary's start (rollback, state rebuild, recovery epoch).
func promoteVsUptime(cfg Config) ([]Row, error) {
	var rows []Row
	for _, uptime := range uptimeAxis(cfg) {
		h, err := newHAHarness(cfg.Seed, "replicated", time.Minute, true)
		if err != nil {
			return nil, err
		}
		row, err := h.promoteAfter(uptime)
		h.close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row...)
	}
	return rows, nil
}

func (h *haHarness) promoteAfter(uptime int) ([]Row, error) {
	if err := runEpochs(h.proxy, h.base.ReadBatches, uptime+3); err != nil {
		return nil, err
	}
	// Let the standby drain the stream: a lagging copy would be topped up
	// from storage at promotion, which is a different cost.
	deadline := time.Now().Add(10 * time.Second)
	for st := h.sender.Stats(); st.Acked < st.StreamLen; st = h.sender.Stats() {
		if time.Now().After(deadline) {
			return nil, errors.New("standby never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	records := 0
	for _, n := range h.standby.Stats().Records {
		records += n
	}
	h.sender.Close() // the primary dies
	base, err := core.WALConfigFor(h.base, 0, len(h.views))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := h.standby.Promote(base)
	if err != nil {
		return nil, err
	}
	if res.Recoveries == nil {
		return nil, errors.New("promotion found no committed state")
	}
	ccfg := h.base
	ccfg.Replicator = nil
	p2, err := core.NewShardedFromRecoveries(res.Stores, ccfg, res.Recoveries)
	if err != nil {
		return nil, err
	}
	promote := time.Since(start)
	p2.Close()
	x := fmt.Sprintf("%d-epochs", uptime)
	return []Row{
		{Experiment: "failover", Series: "promote/uptime", X: x, Value: float64(promote.Microseconds()) / 1000, Unit: "ms", Shards: 2},
		{Experiment: "failover", Series: "standby-records/uptime", X: x, Value: float64(records), Unit: "records", Shards: 2},
	}, nil
}
