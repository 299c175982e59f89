package obladi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"obladi/internal/storage"
)

func openTest(t *testing.T, opt Options) *DB {
	t.Helper()
	if opt.BatchInterval == 0 {
		opt.BatchInterval = 300 * time.Microsecond
	}
	if opt.KeySeed == nil {
		opt.KeySeed = []byte("obladi-test")
	}
	db, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openTest(t, Options{})
	err := db.Update(func(tx *Txn) error {
		return tx.Write("greeting", []byte("hello"))
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	err = db.View(func(tx *Txn) error {
		v, found, err := tx.Read("greeting")
		if err != nil {
			return err
		}
		if !found {
			return errors.New("not found")
		}
		got = v
		return nil
	})
	if err != nil || string(got) != "hello" {
		t.Fatalf("view: %q %v", got, err)
	}
}

func TestUpdateRetriesOnConflict(t *testing.T) {
	db := openTest(t, Options{})
	must(t, db.Update(func(tx *Txn) error { return tx.Write("n", []byte{0}) }))
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- db.Update(func(tx *Txn) error {
				v, _, err := tx.Read("n")
				if err != nil {
					return err
				}
				return tx.Write("n", []byte{v[0] + 1})
			})
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no increment committed")
	}
	var final byte
	must(t, db.View(func(tx *Txn) error {
		v, _, err := tx.Read("n")
		if err != nil {
			return err
		}
		final = v[0]
		return nil
	}))
	if int(final) != ok {
		t.Fatalf("counter %d, committed %d (lost update)", final, ok)
	}
}

// TestUpdateBacksOffOnShed: a shed says the epoch's read slots are spoken
// for, so Update must retry in a later epoch instead of spending every
// attempt on the exhausted one within microseconds.
func TestUpdateBacksOffOnShed(t *testing.T) {
	db := openTest(t, Options{ReadBatches: 1, ReadBatchSize: 1, BatchInterval: 50 * time.Millisecond})
	hog := db.Begin()
	defer hog.Abort()
	hog.ReadAsync("hog") // takes the epoch's only read slot
	err := db.Update(func(tx *Txn) error {
		_, _, err := tx.Read("other")
		return err
	})
	if err != nil {
		t.Fatalf("Update behind a filled epoch: %v", err)
	}
	if st := db.Stats(); st.ShedReads == 0 {
		t.Fatal("the first attempt was not shed; the test did not exercise the backoff")
	}
}

func TestReadManyAPI(t *testing.T) {
	db := openTest(t, Options{})
	must(t, db.Update(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if err := tx.Write(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}))
	must(t, db.View(func(tx *Txn) error {
		res, err := tx.ReadMany([]string{"k0", "k4", "nope"})
		if err != nil {
			return err
		}
		if !res[0].Found || string(res[0].Value) != "v0" {
			return fmt.Errorf("k0 = %+v", res[0])
		}
		if !res[1].Found || string(res[1].Value) != "v4" {
			return fmt.Errorf("k4 = %+v", res[1])
		}
		if res[2].Found {
			return errors.New("phantom key found")
		}
		return nil
	}))
}

func TestDeleteAPI(t *testing.T) {
	db := openTest(t, Options{})
	must(t, db.Update(func(tx *Txn) error { return tx.Write("k", []byte("v")) }))
	must(t, db.Update(func(tx *Txn) error { return tx.Delete("k") }))
	must(t, db.View(func(tx *Txn) error {
		_, found, err := tx.Read("k")
		if err != nil {
			return err
		}
		if found {
			return errors.New("deleted key visible")
		}
		return nil
	}))
}

func TestManualModeAPI(t *testing.T) {
	db, err := Open(Options{KeySeed: []byte("manual")}) // BatchInterval 0: manual
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	must(t, tx.Write("m", []byte("v")))
	ch := tx.CommitAsync()
	// Drive one full epoch by hand: R read batches + the boundary.
	for i := 0; i < 5; i++ {
		must(t, db.Advance())
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 2 {
		t.Fatalf("epoch = %d after one manual epoch", db.Epoch())
	}
}

func TestRemoteStorage(t *testing.T) {
	backend := storage.NewMemBackend(1 << 12)
	srv, err := storage.NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	db := openTest(t, Options{
		MaxKeys:    512,
		RemoteAddr: srv.Addr(),
	})
	must(t, db.Update(func(tx *Txn) error { return tx.Write("remote", []byte("yes")) }))
	must(t, db.View(func(tx *Txn) error {
		v, found, err := tx.Read("remote")
		if err != nil {
			return err // a retryable abort is retried by View
		}
		if !found || string(v) != "yes" {
			return fmt.Errorf("remote read: %q %v", v, found)
		}
		return nil
	}))
}

func TestCrashRecoveryThroughAPI(t *testing.T) {
	backend := storage.NewMemBackend(1 << 12)
	srv, err := storage.NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opt := Options{
		MaxKeys:       512,
		RemoteAddr:    srv.Addr(),
		KeySeed:       []byte("recovery-seed"),
		BatchInterval: 300 * time.Microsecond,
	}
	db1, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	must(t, db1.Update(func(tx *Txn) error { return tx.Write("persist", []byte("me")) }))
	// Simulated crash: sever the proxy's storage connections mid-flight and
	// let it fail-stop (nothing is flushed or committed on the way down),
	// then wait for its goroutines to quiesce so the "dead" instance cannot
	// keep racing the recovering one on the shared storage server. The
	// acknowledged epoch is already durable; everything after it is lost.
	storage.CloseAll(db1.backends)
	db1.Close()

	db2, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen/recover: %v", err)
	}
	defer db2.Close()
	must(t, db2.View(func(tx *Txn) error {
		v, found, err := tx.Read("persist")
		if err != nil {
			return err // a retryable abort is retried by View
		}
		if !found || string(v) != "me" {
			return fmt.Errorf("after recovery: %q %v", v, found)
		}
		return nil
	}))
}

// TestSimulatedLatencyProfiles runs the store over a storage server that
// injects each of the paper's remote latency profiles, as obladi-storage
// -latency does.
func TestSimulatedLatencyProfiles(t *testing.T) {
	for _, prof := range []storage.Profile{storage.ProfileServer, storage.ProfileDynamo} {
		srv, err := storage.NewServer(storage.WithLatency(storage.NewMemBackend(1<<12), prof), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		db := openTest(t, Options{MaxKeys: 256, RemoteAddr: srv.Addr()})
		must(t, db.Update(func(tx *Txn) error { return tx.Write("k", []byte("v")) }))
	}
}

func TestStatsExposed(t *testing.T) {
	db := openTest(t, Options{})
	must(t, db.Update(func(tx *Txn) error { return tx.Write("k", []byte("v")) }))
	st := db.Stats()
	if st.Epochs == 0 || st.Committed == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if db.Epoch() == 0 {
		t.Fatal("epoch not reported")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedDB drives a 4-shard store through the public API: writes and
// reads spanning every shard, within single transactions.
func TestShardedDB(t *testing.T) {
	db := openTest(t, Options{MaxKeys: 1024, Shards: 4})
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d", db.Shards())
	}
	must(t, db.Update(func(tx *Txn) error {
		for i := 0; i < 24; i++ {
			if err := tx.Write(fmt.Sprintf("sharded-%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}))
	must(t, db.View(func(tx *Txn) error {
		var keys []string
		for i := 0; i < 24; i++ {
			keys = append(keys, fmt.Sprintf("sharded-%d", i))
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.Found || string(r.Value) != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("key %d: %+v", i, r)
			}
		}
		return nil
	}))
	if st := db.Stats(); st.Shards != 4 {
		t.Fatalf("stats shards = %d", st.Shards)
	}
}

// TestShardedRemoteStorage runs one obladi-storage server per shard and a
// crash/recovery cycle across all four.
func TestShardedRemoteStorage(t *testing.T) {
	const shards = 4
	var addrs []string
	for i := 0; i < shards; i++ {
		backend := storage.NewMemBackend(1 << 12)
		srv, err := storage.NewServer(backend, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	opt := Options{
		MaxKeys:       512,
		Shards:        shards,
		RemoteAddr:    strings.Join(addrs, ","),
		KeySeed:       []byte("sharded-remote"),
		BatchInterval: 300 * time.Microsecond,
	}
	db1, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	must(t, db1.Update(func(tx *Txn) error {
		for i := 0; i < 12; i++ {
			if err := tx.Write(fmt.Sprintf("remote-%d", i), []byte("yes")); err != nil {
				return err
			}
		}
		return nil
	}))
	// Simulated crash: Close stops the epoch loop without flushing or
	// committing the in-flight epoch — a process death from storage's
	// vantage point (abandoning db1 without Close would leave its epoch
	// loop racing the recovered instance, which no real crash does).
	db1.Close()

	db2, err := Open(opt)
	if err != nil {
		t.Fatalf("sharded reopen/recover: %v", err)
	}
	defer db2.Close()
	must(t, db2.View(func(tx *Txn) error {
		var keys []string
		for i := 0; i < 12; i++ {
			keys = append(keys, fmt.Sprintf("remote-%d", i))
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		for _, r := range res {
			if !r.Found || string(r.Value) != "yes" {
				return fmt.Errorf("%s after recovery: %+v", r.Key, r)
			}
		}
		return nil
	}))
}

func TestShardedRemoteAddrMismatch(t *testing.T) {
	_, err := Open(Options{Shards: 4, RemoteAddr: "localhost:7000,localhost:7001"})
	if err == nil {
		t.Fatal("address/shard count mismatch accepted")
	}
}

// TestFullRestartWithPersistedStorage is the complete durability story: the
// proxy crashes AND the storage server restarts, reopening its data dir — a
// one-shard logheap group, the store obladi-storage -data-dir serves; the
// recovered deployment serves all committed data.
func TestFullRestartWithPersistedStorage(t *testing.T) {
	dir := t.TempDir()
	serve := func() (*storage.DiskGroup, *storage.Server) {
		g, err := storage.OpenDiskGroupOpts(dir, 1, 1<<12, storage.DiskOptions{LogHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := storage.NewServer(g.Backends()[0], "127.0.0.1:0")
		if err != nil {
			g.Close()
			t.Fatal(err)
		}
		return g, srv
	}

	g1, srv1 := serve()
	opt := Options{
		MaxKeys:       512,
		RemoteAddr:    srv1.Addr(),
		KeySeed:       []byte("full-restart"),
		BatchInterval: 300 * time.Microsecond,
	}
	db1, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	must(t, db1.Update(func(tx *Txn) error { return tx.Write("durable", []byte("across-restarts")) }))
	// Proxy crashes; storage shuts down and closes its data dir.
	srv1.Close()
	db1.Close()
	must(t, g1.Close())

	g2, srv2 := serve()
	defer g2.Close()
	defer srv2.Close()
	opt.RemoteAddr = srv2.Addr()
	db2, err := Open(opt)
	if err != nil {
		t.Fatalf("recovery against restarted storage: %v", err)
	}
	defer db2.Close()
	must(t, db2.View(func(tx *Txn) error {
		v, found, err := tx.Read("durable")
		if err != nil {
			return err // a retryable abort is retried by View
		}
		if !found || string(v) != "across-restarts" {
			return fmt.Errorf("after full restart: %q %v", v, found)
		}
		return nil
	}))
}

// TestOpenFailsWhenFencingFails: a proxy that will hold a standby's lease
// must run on fenced views, so a failed AcquireFence fails Open with its
// error before the proxy touches the store — never a fallback to the raw
// token-0 handle, which no promotion could revoke.
func TestOpenFailsWhenFencingFails(t *testing.T) {
	opt, params, key, err := normalize(Options{ReplicaListen: "127.0.0.1:0", KeySeed: []byte("fence")})
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemBackend(params.Geometry().NumBuckets)
	mem.Close()
	db, err := openOn(opt, coreConfig(opt, params, key), []storage.Backend{mem})
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded over a store it could not fence")
	}
	if !errors.Is(err, storage.ErrClosed) || !strings.Contains(err.Error(), "fencing shard 0") {
		t.Fatalf("Open over an unfenceable store: %v, want the fence's ErrClosed", err)
	}
}
