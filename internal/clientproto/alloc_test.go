package clientproto

import (
	"context"
	"testing"

	"obladi/internal/allocgate"
	"obladi/internal/kvtxn"
)

// allocFreeDB is an engine that allocates nothing: one shared transaction,
// reads that are resolved the moment they are registered. What a
// transaction through the wire allocates over it is the wire's own cost.
type allocFreeDB struct{ txn allocFreeTxn }

type allocFreeTxn struct{ value []byte }

func (d *allocFreeDB) Begin() kvtxn.Txn { return &d.txn }
func (d *allocFreeDB) Close() error     { return nil }

func (t *allocFreeTxn) Read(string) ([]byte, bool, error)        { return t.value, true, nil }
func (t *allocFreeTxn) ReadAsync(string) kvtxn.ReadFuture        { return t }
func (t *allocFreeTxn) ReadMany([]string) ([]kvtxn.Value, error) { return nil, nil }
func (t *allocFreeTxn) Write(string, []byte) error               { return nil }
func (t *allocFreeTxn) Delete(string) error                      { return nil }
func (t *allocFreeTxn) Commit() error                            { return nil }
func (t *allocFreeTxn) Abort()                                   {}

// Wait makes the transaction its own, already resolved, read future.
func (t *allocFreeTxn) Wait(context.Context) ([]byte, bool, error) { return t.value, true, nil }

// TestMuxTxnAllocBudget pins what one transaction costs on the client wire,
// both ends counted: begin, two pipelined reads, a write and the commit
// through a MuxClient and an in-process server. What remains is a share of a
// chunk each for the transaction (its futures are part of it), for the
// carved read value and for the three keys and the write value the server
// carves for the engine; the session, its queues, its read waiters and every
// reply channel are reused, and frames are encoded in the writers' own
// buffers.
func TestMuxTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gate := allocgate.Begin(t)
	db := &allocFreeDB{txn: allocFreeTxn{value: make([]byte, 256)}}
	srv, err := NewServer(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	value := make([]byte, 256)
	ctx := context.Background()
	txn := func() {
		tx := c.Begin()
		r1, r2 := tx.ReadAsync("key-000000000001"), tx.ReadAsync("key-000000000002")
		if _, _, err := r1.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r2.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("key-000000000003", value); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	gate.Settle()
	allocs := testing.AllocsPerRun(200, txn)
	t.Logf("2 reads + 1 write + commit over the mux wire: %.1f allocations, client and server", allocs)
	if allocs > 1 {
		t.Errorf("%.1f allocations per transaction, budget 1: the session path allocates per operation again", allocs)
	}
}
