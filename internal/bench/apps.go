package bench

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"obladi/internal/baseline"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/freehealth"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/smallbank"
	"obladi/internal/storage"
	"obladi/internal/tpcc"
)

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// proxyOpts configures a throwaway Obladi proxy for microbenchmarks.
type proxyOpts struct {
	params     *ringoram.Params // nil = derive from numKeys
	numKeys    int
	profile    storage.Profile
	scale      float64
	durability bool
	ckptEvery  int
	txns       int
}

// proxyRun is one proxyThroughput measurement.
type proxyRun struct {
	rate              float64 // completed (committed or aborted) txns/s
	logBytesPerCommit float64 // recovery-log bytes appended per committed txn
}

// proxyThroughput measures completed single-write transactions per second
// on a manually-driven proxy, and the log bytes each commit cost.
func proxyThroughput(cfg Config, opt proxyOpts) (proxyRun, error) {
	p := ringoram.Params{
		NumBlocks: opt.numKeys, Z: 16, S: 24, A: 16,
		KeySize: 24, ValueSize: 64, Seed: cfg.Seed,
	}
	if opt.params != nil {
		p = *opt.params
	}
	m := newMeter(storage.NewMemBackend(p.Geometry().NumBuckets))
	var backend storage.Backend = m
	if opt.profile.Name != "" && opt.profile.Name != "dummy" {
		backend = storage.WithLatency(m, opt.profile.Scaled(opt.scale))
	}
	proxy, err := core.New(backend, core.Config{
		Params: p, Key: cryptoutil.KeyFromSeed([]byte("bench")),
		ReadBatches: 4, ReadBatchSize: 16, WriteBatchSize: 32,
		DisableDurability:   !opt.durability,
		FullCheckpointEvery: opt.ckptEvery,
	})
	if err != nil {
		return proxyRun{}, err
	}
	defer proxy.Close()
	m.reset()
	rng := newRand(cfg.Seed)
	start := time.Now()
	done, committed := 0, 0
	for done < opt.txns {
		// A small group of write txns per epoch.
		group := min(8, opt.txns-done)
		chans := make([]<-chan error, group)
		for i := 0; i < group; i++ {
			tx := proxy.Begin()
			if err := tx.Write(fmt.Sprintf("key-%d", rng.IntN(opt.numKeys)), []byte("v")); err != nil {
				return proxyRun{}, err
			}
			chans[i] = tx.CommitAsync()
		}
		if err := proxy.EndEpoch(); err != nil {
			return proxyRun{}, err
		}
		for _, ch := range chans {
			if <-ch == nil { // conflicts abort; both outcomes count as completed ops
				committed++
			}
		}
		done += group
	}
	return proxyRun{
		rate:              opsPerSec(done, time.Since(start)),
		logBytesPerCommit: perOp(int(m.logBytes.Load()), committed),
	}, nil
}

// appEngine is one (engine, app) pairing for Figure 9 / Figure 10f.
type appEngine struct {
	name string
	db   kvtxn.DB
}

// engineSpec identifies the five systems of Figure 9.
type engineSpec struct {
	name string
	wan  bool
	kind string // obladi | nopriv | mysql
}

func fig9Engines() []engineSpec {
	return []engineSpec{
		{"Obladi", false, "obladi"},
		{"NoPriv", false, "nopriv"},
		{"MySQL", false, "mysql"},
		{"ObladiW", true, "obladi"},
		{"NoPrivW", true, "nopriv"},
	}
}

// appSpec describes one application workload.
type appSpec struct {
	name    string
	numKeys int
	valSize int
	// epoch shape per §6.4: TPC-C needs more read batches and a larger
	// write batch; FreeHealth is read-mostly with a small write batch.
	readBatches, readBatch, writeBatch int
	load                               func(db kvtxn.DB, quick bool) error
	next                               func(db kvtxn.DB, seed uint64) func() error
}

func appSpecs(cfg Config) []appSpec {
	tpccCfg := tpcc.Defaults()
	sbCfg := smallbank.Defaults()
	fhCfg := freehealth.Defaults()
	if !cfg.Quick {
		tpccCfg.Warehouses = 4
		tpccCfg.CustomersPerDist = 20
		tpccCfg.Items = 100
		sbCfg.Accounts = 400
		fhCfg.Patients = 80
	}
	return []appSpec{
		{
			name: "TPC-C", numKeys: 16384, valSize: tpcc.MinValueSize * 2,
			readBatches: 8, readBatch: 48, writeBatch: 96,
			load: func(db kvtxn.DB, quick bool) error { return tpcc.Load(db, tpccCfg) },
			next: func(db kvtxn.DB, seed uint64) func() error {
				c := tpcc.NewClient(db, tpccCfg, seed)
				return func() error { _, err := c.Next(); return err }
			},
		},
		{
			name: "FreeHealth", numKeys: 8192, valSize: freehealth.MinValueSize * 2,
			readBatches: 5, readBatch: 32, writeBatch: 24,
			load: func(db kvtxn.DB, quick bool) error { return freehealth.Load(db, fhCfg) },
			next: func(db kvtxn.DB, seed uint64) func() error {
				c := freehealth.NewClient(db, fhCfg, seed)
				return func() error { _, err := c.Next(); return err }
			},
		},
		{
			name: "Smallbank", numKeys: 4096, valSize: 64,
			readBatches: 4, readBatch: 32, writeBatch: 48,
			load: func(db kvtxn.DB, quick bool) error { return smallbank.Load(db, sbCfg) },
			next: func(db kvtxn.DB, seed uint64) func() error {
				c := smallbank.NewClient(db, sbCfg, seed)
				return func() error { _, err := c.Next(); return err }
			},
		},
	}
}

// buildEngine assembles a DB for an engine spec and app spec.
func buildEngine(cfg Config, es engineSpec, as appSpec, batchInterval time.Duration) (*appEngine, error) {
	var prof storage.Profile
	if es.wan {
		prof = storage.ProfileServerWAN.Scaled(cfg.LatencyScale / 8)
	} else {
		prof = storage.ProfileServer.Scaled(cfg.LatencyScale)
	}
	switch es.kind {
	case "obladi":
		p := ringoram.Params{
			NumBlocks: as.numKeys, Z: 16, S: 24, A: 16,
			KeySize: 48, ValueSize: as.valSize, Seed: cfg.Seed,
		}
		var backend storage.Backend = storage.NewMemBackend(p.Geometry().NumBuckets)
		backend = storage.WithLatency(backend, prof)
		proxy, err := core.New(backend, core.Config{
			Params: p, Key: cryptoutil.KeyFromSeed([]byte("fig9")),
			ReadBatches:       as.readBatches,
			ReadBatchSize:     as.readBatch,
			WriteBatchSize:    as.writeBatch,
			BatchInterval:     batchInterval,
			DisableDurability: true, // Figure 9 isolates the data path
		})
		if err != nil {
			return nil, err
		}
		return &appEngine{name: es.name, db: kvtxn.ProxyDB{P: proxy}}, nil
	case "nopriv":
		store := storage.WithLatency(storage.NewMemBackend(0), prof)
		return &appEngine{name: es.name, db: baseline.NewNoPriv(store)}, nil
	case "mysql":
		store := storage.WithLatency(storage.NewMemBackend(0), prof)
		return &appEngine{name: es.name, db: baseline.NewTwoPL(store)}, nil
	}
	return nil, fmt.Errorf("bench: unknown engine kind %q", es.kind)
}

// runAppClients drives concurrent clients for a fixed transaction budget and
// returns throughput (committed txns/s) and mean latency.
func runAppClients(db kvtxn.DB, next func(db kvtxn.DB, seed uint64) func() error, clients, txnsPerClient int, seed uint64) (float64, time.Duration) {
	var committed, latencySum int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run := next(db, seed+uint64(c))
			for i := 0; i < txnsPerClient; i++ {
				t0 := time.Now()
				err := run()
				if err == nil {
					atomic.AddInt64(&committed, 1)
					atomic.AddInt64(&latencySum, int64(time.Since(t0)))
				} else if !errors.Is(err, kvtxn.ErrAborted) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := atomic.LoadInt64(&committed)
	if n == 0 {
		return 0, 0
	}
	return opsPerSec(int(n), elapsed), time.Duration(latencySum / n)
}

// fig9 measures all five engines across the three applications.
func fig9(cfg Config) (map[string]map[string][2]float64, error) {
	// Epoch-based commits need many concurrent clients to amortize: a
	// synchronous client commits once per epoch, so offered concurrency is
	// what fills Obladi's batches (the paper drives hundreds of clients).
	clients, txns := 64, 6
	if cfg.Quick {
		clients, txns = 32, 4
	}
	out := make(map[string]map[string][2]float64)
	for _, as := range appSpecs(cfg) {
		out[as.name] = make(map[string][2]float64)
		for _, es := range fig9Engines() {
			eng, err := buildEngine(cfg, es, as, 500*time.Microsecond)
			if err != nil {
				return nil, err
			}
			if err := as.load(eng.db, cfg.Quick); err != nil {
				eng.db.Close()
				return nil, fmt.Errorf("loading %s on %s: %w", as.name, es.name, err)
			}
			tput, lat := runAppClients(eng.db, as.next, clients, txns, cfg.Seed)
			out[as.name][es.name] = [2]float64{tput, float64(lat.Microseconds()) / 1000}
			eng.db.Close()
		}
	}
	return out, nil
}

// Fig9a reproduces Figure 9a: application throughput per engine.
func Fig9a(cfg Config) ([]Row, error) {
	m, err := fig9(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, as := range appSpecs(cfg) {
		for _, es := range fig9Engines() {
			rows = append(rows, Row{Experiment: "fig9a", Series: es.name, X: as.name, Value: m[as.name][es.name][0], Unit: "txn/s"})
		}
	}
	return rows, nil
}

// Fig9b reproduces Figure 9b: application latency per engine.
func Fig9b(cfg Config) ([]Row, error) {
	m, err := fig9(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, as := range appSpecs(cfg) {
		for _, es := range fig9Engines() {
			rows = append(rows, Row{Experiment: "fig9b", Series: es.name, X: as.name, Value: m[as.name][es.name][1], Unit: "ms"})
		}
	}
	return rows, nil
}

// Fig10f reproduces Figure 10f: application throughput on Obladi as a
// function of the epoch duration (batch interval sweep).
func Fig10f(cfg Config) ([]Row, error) {
	intervals := []time.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond, 12 * time.Millisecond}
	clients, txns := 48, 5
	if cfg.Quick {
		intervals = intervals[:3]
		clients, txns = 24, 4
	}
	var rows []Row
	for _, as := range appSpecs(cfg) {
		for _, iv := range intervals {
			eng, err := buildEngine(cfg, engineSpec{"Obladi", false, "obladi"}, as, iv)
			if err != nil {
				return nil, err
			}
			if err := as.load(eng.db, cfg.Quick); err != nil {
				eng.db.Close()
				return nil, err
			}
			tput, _ := runAppClients(eng.db, as.next, clients, txns, cfg.Seed)
			epochMs := float64((iv * time.Duration(as.readBatches)).Microseconds()) / 1000
			rows = append(rows, Row{Experiment: "fig10f", Series: as.name, X: fmt.Sprintf("%.1fms", epochMs), Value: tput, Unit: "txn/s"})
			eng.db.Close()
		}
	}
	return rows, nil
}
