package clientproto_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
)

// mapDB is a deterministic engine for wire tests: committed values in a map,
// a transaction's writes buffered until Commit, reads resolved at once. It
// keeps every value the server hands it as it is, so a test can look at the
// server's copies.
type mapDB struct {
	mu   sync.Mutex
	data map[string][]byte
}

type mapTxn struct {
	db     *mapDB
	writes map[string][]byte // nil value: deleted
}

// mapFuture is an already resolved read.
type mapFuture struct {
	v     []byte
	found bool
}

func newMapDB() *mapDB { return &mapDB{data: map[string][]byte{}} }

// get and set reach the committed values from a test's goroutine.
func (d *mapDB) get(key string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.data[key]
}

func (d *mapDB) set(key string, v []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.data[key] = v
}

// state renders the committed values.
func (d *mapDB) state() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprint(d.data)
}

func (d *mapDB) Begin() kvtxn.Txn { return &mapTxn{db: d, writes: map[string][]byte{}} }
func (d *mapDB) Close() error     { return nil }

func (t *mapTxn) Read(key string) ([]byte, bool, error) {
	if v, ok := t.writes[key]; ok {
		return v, v != nil, nil
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	v, ok := t.db.data[key]
	return v, ok, nil
}

func (t *mapTxn) ReadAsync(key string) kvtxn.ReadFuture {
	v, found, _ := t.Read(key)
	return mapFuture{v, found}
}

func (f mapFuture) Wait(context.Context) ([]byte, bool, error) { return f.v, f.found, nil }

func (t *mapTxn) ReadMany(keys []string) ([]kvtxn.Value, error) {
	out := make([]kvtxn.Value, len(keys))
	for i, k := range keys {
		v, found, _ := t.Read(k)
		out[i] = kvtxn.Value{Key: k, Value: v, Found: found}
	}
	return out, nil
}

func (t *mapTxn) Write(key string, value []byte) error {
	if value == nil {
		value = []byte{}
	}
	t.writes[key] = value
	return nil
}

func (t *mapTxn) Delete(key string) error {
	t.writes[key] = nil
	return nil
}

func (t *mapTxn) Commit() error {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	for k, v := range t.writes {
		if v == nil {
			delete(t.db.data, k)
		} else {
			t.db.data[k] = v
		}
	}
	return nil
}

func (t *mapTxn) Abort() {}

// serveMapDB serves a fresh mapDB and dials a client to it.
func serveMapDB(t *testing.T) (*mapDB, *clientproto.MuxClient) {
	t.Helper()
	db := newMapDB()
	srv, err := clientproto.NewServer(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	mc, err := clientproto.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return db, mc
}

// pattern is value i's distinct content.
func pattern(i, n int) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(i))
	return bytes.Repeat(b[:], n/2)
}

// overwriteThenAppend overwrites every kept value in full with a pattern of
// its own, then appends to each, and checks every value holds its pattern:
// two values sharing bytes, or an append reaching a neighbour, shows as a
// value holding another's pattern.
func overwriteThenAppend(t *testing.T, kept [][]byte) {
	t.Helper()
	for i, v := range kept {
		if cap(v) != len(v) {
			t.Fatalf("value %d has capacity %d past its %d bytes: an append would reach a neighbour", i, cap(v), len(v))
		}
		copy(v, pattern(1<<15+i, len(v)))
	}
	for _, v := range kept {
		_ = append(v, 0xee, 0xee)
	}
	for i, v := range kept {
		if !bytes.Equal(v, pattern(1<<15+i, len(v))) {
			t.Fatalf("value %d = %x after the writes, want its own pattern", i, v)
		}
	}
}

// TestMuxValuesDoNotAlias keeps 1 000 values the server carved for the
// engine and 1 000 read results the client carved for its caller, and
// overwrites each in full, then appends to each: no value may change with
// another, and the engine's own values stay as they were.
func TestMuxValuesDoNotAlias(t *testing.T) {
	const n, size = 1000, 64
	db, mc := serveMapDB(t)
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	for i := 0; i < n; i += 4 {
		tx := mc.Begin()
		for j := i; j < i+4; j++ {
			must(t, tx.Write(key(j), pattern(j, size)))
		}
		must(t, tx.Commit())
	}
	var carved [][]byte
	for i := 0; i < n; i++ {
		v := db.get(key(i))
		if !bytes.Equal(v, pattern(i, size)) {
			t.Fatalf("the engine holds %s = %x", key(i), v)
		}
		carved = append(carved, v)
	}
	overwriteThenAppend(t, carved)

	// Fresh engine values for the reads: the carved ones were just trampled.
	for i := 0; i < n; i++ {
		db.set(key(i), pattern(i, size))
	}
	var read [][]byte
	for i := 0; i < n; i += 4 {
		tx := mc.Begin()
		var futures []kvtxn.ReadFuture
		for j := i; j < i+4; j++ {
			futures = append(futures, tx.ReadAsync(key(j)))
		}
		for j, f := range futures {
			v, found, err := f.Wait(nil)
			if err != nil || !found || !bytes.Equal(v, pattern(i+j, size)) {
				t.Fatalf("read %s = %x, %v, %v", key(i+j), v, found, err)
			}
			read = append(read, v)
		}
		must(t, tx.Commit())
	}
	overwriteThenAppend(t, read)
	for i := 0; i < n; i++ {
		if !bytes.Equal(db.get(key(i)), pattern(i, size)) {
			t.Fatalf("the engine's %s changed with the client's copy", key(i))
		}
	}
}

// TestMuxTxnSpillsMatchModel runs a transaction past a MuxTxn's inline
// futures on both counts — nine writes and three deletes (thirteen acks with
// the begin), nine pipelined reads — against the real engine, and checks
// every result, and the committed state, against a map.
func TestMuxTxnSpillsMatchModel(t *testing.T) {
	db := clientproto.MuxDB{C: newStack(t)}
	key := func(i int) string { return fmt.Sprintf("spill-%02d", i) }
	model := map[string]string{}
	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		for i := 0; i < 9; i++ {
			if err := tx.Write(key(i), []byte(fmt.Sprint("old-", i))); err != nil {
				return err
			}
		}
		return nil
	}))
	for i := 0; i < 9; i++ {
		model[key(i)] = fmt.Sprint("old-", i)
	}

	// Writes to 4..12, deletes of 0..2, then reads of 0..8: own deletes,
	// committed 3, own writes 4..8.
	want := map[string]string{}
	for k, v := range model {
		want[k] = v
	}
	for i := 4; i < 13; i++ {
		want[key(i)] = fmt.Sprint("new-", i)
	}
	for i := 0; i < 3; i++ {
		delete(want, key(i))
	}
	must(t, kvtxn.RunWithRetries(db, 10, func(kt kvtxn.Txn) error {
		tx := kt.(*clientproto.MuxTxn)
		var acks []*clientproto.MuxAck
		for i := 4; i < 13; i++ {
			acks = append(acks, tx.WriteAsync(key(i), []byte(want[key(i)])))
		}
		for i := 0; i < 3; i++ {
			acks = append(acks, tx.DeleteAsync(key(i)))
		}
		var reads []kvtxn.ReadFuture
		for i := 0; i < 9; i++ {
			reads = append(reads, tx.ReadAsync(key(i)))
		}
		for i, f := range reads {
			v, found, err := f.Wait(nil)
			if err != nil {
				return err
			}
			if w, ok := want[key(i)]; found != ok || string(v) != w {
				t.Fatalf("read %s = %q (found %v) inside the transaction, want %q (found %v)", key(i), v, found, w, ok)
			}
		}
		for i, a := range acks {
			if err := a.Wait(nil); err != nil {
				return fmt.Errorf("ack %d: %w", i, err)
			}
		}
		return nil
	}))
	model = want

	must(t, kvtxn.RunWithRetries(db, 10, func(tx kvtxn.Txn) error {
		keys := make([]string, 13)
		for i := range keys {
			keys[i] = key(i)
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		for _, r := range res {
			if w, ok := model[r.Key]; r.Found != ok || string(r.Value) != w {
				t.Fatalf("committed %s = %q (found %v), want %q (found %v)", r.Key, r.Value, r.Found, w, ok)
			}
		}
		return nil
	}))
}

// TestMuxStaleHandlesAgainstTwin uses a settled transaction and its futures
// from four goroutines while 1 000 later transactions run on the same
// client. Every stale call answers "session settled" or its recorded result,
// and the live transactions see exactly what a twin client, which never made
// a stale call, sees on a twin engine.
func TestMuxStaleHandlesAgainstTwin(t *testing.T) {
	dbA, a := serveMapDB(t)
	dbB, b := serveMapDB(t)
	for _, db := range []*mapDB{dbA, dbB} {
		db.set("seed", []byte("seed-value"))
	}
	// The transaction that goes stale, run on both sides.
	settle := func(mc *clientproto.MuxClient) (*clientproto.MuxTxn, kvtxn.ReadFuture, *clientproto.MuxAck) {
		tx := mc.Begin()
		ack := tx.WriteAsync("stale", []byte("before"))
		f := tx.ReadAsync("seed")
		must(t, tx.Commit())
		return tx, f, ack
	}
	stale, staleRead, staleAck := settle(a)
	settle(b)
	if v, found, err := staleRead.Wait(nil); err != nil || !found || string(v) != "seed-value" {
		t.Fatalf("the stale transaction's read = %q, %v, %v", v, found, err)
	}

	settled := func(err error) bool {
		return errors.Is(err, kvtxn.ErrAborted) && strings.Contains(fmt.Sprint(err), "session settled")
	}
	var stop atomic.Bool
	var bad atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				time.Sleep(20 * time.Microsecond) // leave the live transactions the CPUs
				var err error
				switch i % 6 {
				case 0:
					_, _, err = stale.ReadAsync(fmt.Sprint("k", g)).Wait(nil)
				case 1:
					err = stale.Write("stale", []byte("after"))
				case 2:
					err = stale.Delete("seed")
				case 3:
					err = stale.Commit()
				case 4:
					stale.Abort()
					err = staleAck.Wait(nil)
					if err != nil {
						bad.Store(fmt.Sprintf("the stale write's ack now reads %v", err))
					}
					continue
				case 5:
					v, found, rerr := staleRead.Wait(nil)
					if rerr != nil || !found || string(v) != "seed-value" {
						bad.Store(fmt.Sprintf("the stale read now reads %q, %v, %v", v, found, rerr))
					}
					continue
				}
				if !settled(err) {
					bad.Store(fmt.Sprintf("stale call %d answered %v, want session settled", i%6, err))
				}
			}
		}(g)
	}

	// One live transaction on either side: a write, a read of an earlier
	// key, a delete every seventh; what it saw, as a string.
	live := func(mc *clientproto.MuxClient, i int) string {
		tx := mc.Begin()
		must(t, tx.Write(fmt.Sprint("k", i%50), []byte(fmt.Sprint("v", i))))
		if i%7 == 0 {
			must(t, tx.Delete(fmt.Sprint("k", (i+3)%50)))
		}
		v, found, err := tx.Read(fmt.Sprint("k", (i*7)%50))
		must(t, err)
		must(t, tx.Commit())
		return fmt.Sprintf("%q %v", v, found)
	}
	for i := 0; i < 1000; i++ {
		if got, want := live(a, i), live(b, i); got != want {
			t.Fatalf("transaction %d saw %s beside stale calls, %s on the twin", i, got, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if dbA.state() != dbB.state() {
		t.Fatal("the engine behind the stale calls ended in another state than its twin")
	}
}
