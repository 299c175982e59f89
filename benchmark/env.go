package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"obladi/internal/clientproto"
	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/kvtxn"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

// This file assembles one workload's system under test — store, storage
// meter, proxy, and for kv-wire both wires — and preloads it. Building an
// env is what setup_s times.

// ORAM geometry shared by every workload: the repository's canonical Ring
// ORAM constants (bench hot path, examples).
const (
	oramZ = 16
	oramS = 24
	oramA = 16
)

type env struct {
	w        *workload
	proxy    *core.Proxy
	counters *storageCounters
	group    *storage.DiskGroup // bank-disk only
	wire     *wireEngine        // kv-wire only
	dataDir  string             // bank-disk only; removed on close
	names    []string
	template []byte
	closers  []func() error
}

// oramParams sizes one shard's ORAM. Hash routing spreads keys unevenly
// across shards, so a sharded store gets 5% headroom.
func (w *workload) oramParams(seed uint64) ringoram.Params {
	blocks := w.keys
	if w.shards > 1 {
		blocks = w.keys/w.shards + w.keys/w.shards/20
	}
	return ringoram.Params{
		NumBlocks: blocks, Z: oramZ, S: oramS, A: oramA,
		KeySize: keySize, ValueSize: w.valSize, Seed: seed + 1,
	}
}

// newEnv opens the store, starts the proxy (and the wires), and preloads
// every key. dataRoot is where a disk workload puts its files.
func newEnv(w *workload, seed uint64, dataRoot string) (e *env, err error) {
	e = &env{w: w, counters: &storageCounters{}, template: w.valueTemplate()}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.names = make([]string, w.keys)
	for i := range e.names {
		e.names[i] = w.keyName(i)
	}
	params := w.oramParams(seed)
	numBuckets := params.Geometry().NumBuckets

	var stores []storage.Backend
	switch w.store {
	case storeMem:
		for i := 0; i < w.shards; i++ {
			stores = append(stores, storage.NewMemBackend(numBuckets))
		}
	case storeDisk:
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		if e.dataDir, err = os.MkdirTemp(dataRoot, w.name+"-"); err != nil {
			return nil, err
		}
		e.group, err = storage.OpenDiskGroupOpts(e.dataDir, w.shards, numBuckets, storage.DiskOptions{LogHeap: true})
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, e.group.Close)
		stores = e.group.Backends()
	case storeRemote:
		for i := 0; i < w.shards; i++ {
			srv, err := storage.NewServer(storage.NewMemBackend(numBuckets), "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			e.closers = append(e.closers, srv.Close)
			cli, err := storage.Dial(srv.Addr())
			if err != nil {
				return nil, err
			}
			e.closers = append(e.closers, cli.Close)
			stores = append(stores, cli)
		}
	}
	metered, err := meterBackends(stores, e.counters)
	if err != nil {
		return nil, err
	}
	e.proxy, err = core.NewSharded(metered, core.Config{
		Params:         params,
		Key:            cryptoutil.KeyFromSeed([]byte("obladi-benchmark")),
		ReadBatches:    w.readBatches,
		ReadBatchSize:  w.readBatchSize,
		WriteBatchSize: w.writeBatchSize,
		Boundary:       core.BoundaryPipelined,
	})
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, e.proxy.Close)
	if err := e.preload(); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if w.wire {
		if e.wire, err = newWireEngine(e.proxy); err != nil {
			return nil, err
		}
		e.closers = append(e.closers, e.wire.close)
	}
	return e, nil
}

// close tears the environment down in reverse order of construction and
// removes the data dir.
func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	if e.dataDir != "" {
		if err := os.RemoveAll(e.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stepEpoch drives one whole epoch of the fixed schedule.
func (e *env) stepEpoch() error {
	for b := 0; b < e.w.readBatches; b++ {
		if err := e.proxy.StepReadBatch(); err != nil {
			return err
		}
	}
	return e.proxy.EndEpoch()
}

// preload writes the initial value under every key, as many keys per epoch
// as the shards' write batches hold.
func (e *env) preload() error {
	w := e.w
	initial := w.initialValue()
	var prev, cur []<-chan error
	collect := func(acks []<-chan error) error {
		for _, ch := range acks {
			if err := <-ch; err != nil {
				return err
			}
		}
		return nil
	}
	perShard := make([]int, w.shards)
	next := 0
	for next < w.keys {
		for i := range perShard {
			perShard[i] = 0
		}
		cur = cur[:0]
		for ; next < w.keys; next++ {
			sh := shardOf(e.names[next], w.shards)
			if perShard[sh] == w.writeBatchSize {
				break
			}
			perShard[sh]++
			tx := e.proxy.Begin()
			if err := tx.Write(e.names[next], encodeValue(e.template, initial)); err != nil {
				return err
			}
			cur = append(cur, tx.CommitAsync())
		}
		if err := e.stepEpoch(); err != nil {
			return err
		}
		// The seal waited for the previous epoch's commit, so its acks are in.
		if err := collect(prev); err != nil {
			return err
		}
		prev, cur = cur, prev
	}
	if err := e.stepEpoch(); err != nil {
		return err
	}
	return collect(prev)
}

// fsType names the filesystem holding path, for the host stamp.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// dataRootFor resolves where disk workloads keep their files: the given
// directory, else .bench_build/data under the working directory.
func dataRootFor(flagDir string) (string, error) {
	if flagDir != "" {
		return filepath.Abs(flagDir)
	}
	return filepath.Abs(filepath.Join(".bench_build", "data"))
}

// The driver talks to the system through these two small interfaces, so the
// embedded workloads call core directly and kv-wire goes through the mux
// client with the same driver code.

type readFuture interface {
	Wait(ctx context.Context) ([]byte, bool, error)
}

type txn interface {
	ReadAsync(key string) readFuture
	Write(key string, value []byte) error
	CommitAsync() <-chan error
	Abort()
}

type engine interface {
	begin() txn
	// syncOps returns once every read and write issued so far is registered
	// with the proxy; syncCommits likewise for commit requests. The schedule
	// may only advance past these points.
	syncOps()
	syncCommits()
}

// embedded is the in-process engine: calls land in core synchronously, so
// the sync points are empty.
type embedded struct{ p *core.Proxy }

type embeddedTxn core.Txn

func (e embedded) begin() txn   { return (*embeddedTxn)(e.p.Begin()) }
func (e embedded) syncOps()     {}
func (e embedded) syncCommits() {}

func (t *embeddedTxn) ReadAsync(key string) readFuture { return (*core.Txn)(t).ReadAsync(key) }
func (t *embeddedTxn) Write(key string, value []byte) error {
	return (*core.Txn)(t).Write(key, value)
}
func (t *embeddedTxn) CommitAsync() <-chan error { return (*core.Txn)(t).CommitAsync() }
func (t *embeddedTxn) Abort()                    { (*core.Txn)(t).Abort() }

// wireEngine is kv-wire's client side: one mux connection to a clientproto
// server that is handed the benchmark's own kvtxn.DB over the proxy.
type wireEngine struct {
	db     *wireDB
	server *clientproto.Server
	client *clientproto.MuxClient
	wire   wireCounters

	// What the client has sent so far; the sync points wait for the adapter
	// to have registered as much.
	sentOps     int64
	sentCommits int64
	frames      int64
}

func newWireEngine(p *core.Proxy) (*wireEngine, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	we := &wireEngine{db: &wireDB{p: p, progress: make(chan struct{}, 1)}}
	we.server = clientproto.NewServerListener(we.db, countingListener{Listener: ln, c: &we.wire})
	we.client, err = clientproto.DialMux(ln.Addr().String())
	if err != nil {
		we.server.Close()
		return nil, err
	}
	return we, nil
}

func (we *wireEngine) close() error {
	err := we.client.Close()
	if serr := we.server.Close(); err == nil {
		err = serr
	}
	return err
}

func (we *wireEngine) begin() txn {
	we.frames++
	return &wireTxn{we: we, t: we.client.Begin()}
}

func (we *wireEngine) syncOps()     { we.db.await(&we.db.ops, we.sentOps) }
func (we *wireEngine) syncCommits() { we.db.await(&we.db.commits, we.sentCommits) }

type wireTxn struct {
	we *wireEngine
	t  *clientproto.MuxTxn
}

func (t *wireTxn) ReadAsync(key string) readFuture {
	t.we.sentOps++
	t.we.frames++
	return t.t.ReadAsync(key)
}

func (t *wireTxn) Write(key string, value []byte) error {
	t.we.sentOps++
	t.we.frames++
	return t.t.Write(key, value)
}

// CommitAsync parks one goroutine on the session's commit reply, as a real
// client would block in Commit.
func (t *wireTxn) CommitAsync() <-chan error {
	t.we.sentCommits++
	t.we.frames++
	ch := make(chan error, 1)
	go func() { ch <- t.t.Commit() }()
	return ch
}

func (t *wireTxn) Abort() {
	t.we.frames++
	t.t.Abort()
}

// wireDB is the kvtxn.DB the clientproto server drives: a thin adapter over
// the proxy that counts registrations, so the driver can step the schedule
// exactly when every frame it sent has reached the proxy, and times the
// proxy calls, so wire cost is what remains of the client-observed time.
type wireDB struct {
	p        *core.Proxy
	ops      atomic.Int64 // ReadAsync + Write + Delete calls made
	commits  atomic.Int64 // commit requests registered
	engineNs atomic.Int64 // time spent inside proxy calls
	progress chan struct{}
}

var (
	_ kvtxn.CtxDB    = (*wireDB)(nil)
	_ kvtxn.AsyncTxn = (*wireDBTxn)(nil)
)

// await blocks until the counter reaches target. Counters signal progress
// after moving, so the check-then-block cannot miss a wake-up.
func (d *wireDB) await(counter *atomic.Int64, target int64) {
	for counter.Load() < target {
		<-d.progress
	}
}

func (d *wireDB) moved(counter *atomic.Int64, start int64) {
	d.engineNs.Add(nanotime() - start)
	counter.Add(1)
	select {
	case d.progress <- struct{}{}:
	default:
	}
}

func (d *wireDB) Begin() kvtxn.Txn { return &wireDBTxn{d: d, t: d.p.Begin()} }

func (d *wireDB) BeginCtx(ctx context.Context) kvtxn.Txn {
	return &wireDBTxn{d: d, t: d.p.BeginCtx(ctx)}
}

// Close is a no-op: the env owns the proxy.
func (d *wireDB) Close() error { return nil }

type wireDBTxn struct {
	d *wireDB
	t *core.Txn
}

func (t *wireDBTxn) Read(key string) ([]byte, bool, error) {
	return t.ReadAsync(key).Wait(context.Background())
}

func (t *wireDBTxn) ReadAsync(key string) kvtxn.ReadFuture {
	start := nanotime()
	f := t.t.ReadAsync(key)
	t.d.moved(&t.d.ops, start)
	return f
}

func (t *wireDBTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	res, err := t.t.ReadMany(keys)
	if err != nil {
		return nil, err
	}
	out := make([]kvtxn.Value, len(res))
	for i, r := range res {
		out[i] = kvtxn.Value{Key: r.Key, Value: r.Value, Found: r.Found}
	}
	return out, nil
}

func (t *wireDBTxn) Write(key string, value []byte) error {
	start := nanotime()
	err := t.t.Write(key, value)
	t.d.moved(&t.d.ops, start)
	return err
}

func (t *wireDBTxn) Delete(key string) error {
	start := nanotime()
	err := t.t.Delete(key)
	t.d.moved(&t.d.ops, start)
	return err
}

// Commit registers the commit request before it is counted, so the driver
// cannot seal the epoch ahead of a commit it has been told about.
func (t *wireDBTxn) Commit() error {
	start := nanotime()
	ch := t.t.CommitAsync()
	t.d.moved(&t.d.commits, start)
	return <-ch
}

func (t *wireDBTxn) Abort() { t.t.Abort() }
