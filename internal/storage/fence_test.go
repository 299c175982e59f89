package storage

import (
	"errors"
	"testing"
)

// TestMemFence pins the in-process fencing contract: a newer acquisition
// fences every older handle's mutations, reads stay open, and the raw handle
// (token 0) is never fenced — deployments that don't opt in are unaffected.
// A handle's Close closes that handle only.
func TestMemFence(t *testing.T) {
	m := NewMemBackend(8)
	defer m.Close()

	v1, t1, err := m.AcquireFence()
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if _, err := v1.Append([]byte("a")); err != nil {
		t.Fatalf("append through live fence handle: %v", err)
	}

	v2, t2, err := m.AcquireFence()
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if t2 <= t1 {
		t.Fatalf("tokens must strictly increase: %d then %d", t1, t2)
	}

	checkFenced := func(v Backend, gen string) {
		t.Helper()
		_, err := v.Append([]byte("b"))
		for op, err := range map[string]error{
			"append":        err,
			"bucket write":  v.WriteBucket(0, 1, [][]byte{{1}}),
			"bucket writes": v.WriteBuckets([]BucketWrite{{Bucket: 1, Epoch: 1, Slots: [][]byte{{1}}}}),
			"commit":        v.CommitEpoch(1),
			"rollback":      v.RollbackTo(0),
			"truncate":      v.Truncate(1),
		} {
			if !errors.Is(err, ErrFenced) {
				t.Fatalf("%s handle %s: got %v, want ErrFenced", gen, op, err)
			}
		}
		// Reads through a stale handle keep working: the fenced-out
		// generation may still observe state while failing over, it just
		// cannot change it.
		if _, err := v.Scan(0); err != nil {
			t.Fatalf("%s handle scan: %v", gen, err)
		}
		if _, err := v.LastSeq(); err != nil {
			t.Fatalf("%s handle last-seq: %v", gen, err)
		}
	}
	checkFenced(v1, "stale")

	if _, err := v2.Append([]byte("c")); err != nil {
		t.Fatalf("current handle append: %v", err)
	}
	// A fence acquired through a handle is one more generation of the same
	// store: it fences the handle it came through.
	v3, t3, err := v2.(Fenceable).AcquireFence()
	if err != nil {
		t.Fatalf("acquire through a handle: %v", err)
	}
	if t3 <= t2 {
		t.Fatalf("tokens must strictly increase: %d then %d", t2, t3)
	}
	checkFenced(v2, "superseded")
	if _, err := v3.Append([]byte("d")); err != nil {
		t.Fatalf("newest handle append: %v", err)
	}
	// The raw handle never acquired a fence and stays writable (token 0).
	if _, err := m.Append([]byte("raw")); err != nil {
		t.Fatalf("raw handle append: %v", err)
	}

	// Closing a stale handle closes it, not the shared store.
	if err := v1.Close(); err != nil {
		t.Fatalf("stale handle close: %v", err)
	}
	if _, err := v1.Scan(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed handle scan: got %v, want ErrClosed", err)
	}
	if _, err := v3.Append([]byte("e")); err != nil {
		t.Fatalf("newest handle append after a stale handle closed: %v", err)
	}
	if _, err := m.Append([]byte("raw2")); err != nil {
		t.Fatalf("raw handle append after a stale handle closed: %v", err)
	}
	if recs, err := v3.Scan(0); err != nil || len(recs) != 6 {
		t.Fatalf("newest handle scan: %v (%d records, want 6)", err, len(recs))
	}
}

// TestRemoteFence pins wire-level fencing: the server tracks the highest
// token per served backend, binds acquisitions to connections, and rejects
// mutations from superseded connections with an error that still satisfies
// errors.Is(err, ErrFenced) client-side.
func TestRemoteFence(t *testing.T) {
	srv, err := NewServer(NewMemBackend(8), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	primary, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer primary.Close()
	standby, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial standby: %v", err)
	}
	defer standby.Close()
	legacy, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial legacy: %v", err)
	}
	defer legacy.Close()

	pv, t1, err := primary.AcquireFence()
	if err != nil {
		t.Fatalf("primary fence: %v", err)
	}
	if _, err := pv.Append([]byte("a")); err != nil {
		t.Fatalf("primary append: %v", err)
	}

	sv, t2, err := standby.AcquireFence()
	if err != nil {
		t.Fatalf("standby fence: %v", err)
	}
	if t2 <= t1 {
		t.Fatalf("tokens must strictly increase: %d then %d", t1, t2)
	}

	if _, err := pv.Append([]byte("b")); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie append: got %v, want ErrFenced", err)
	}
	if err := pv.CommitEpoch(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie commit: got %v, want ErrFenced", err)
	}
	// The zombie can still read — promotion's log-tail top-up depends on
	// reads surviving a lost fence, and ciphertext was never secret from
	// the wire anyway.
	recs, err := pv.Scan(0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("zombie scan: %v (%d records)", err, len(recs))
	}

	if _, err := sv.Append([]byte("c")); err != nil {
		t.Fatalf("promoted append: %v", err)
	}
	// A connection that never fenced is a legacy client and stays writable.
	if _, err := legacy.Append([]byte("d")); err != nil {
		t.Fatalf("legacy append: %v", err)
	}
}
