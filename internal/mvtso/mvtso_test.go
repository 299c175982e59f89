package mvtso

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// installAll installs base versions so reads need no fetch.
func installAll(m *Manager, kv map[string]string) {
	for k, v := range kv {
		m.InstallBase(k, []byte(v), true)
	}
}

func TestReadNeedsFetch(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	_, _, err := tx.Read("x")
	if !errors.Is(err, ErrNeedFetch) {
		t.Fatalf("read without base: %v", err)
	}
	m.InstallBase("x", []byte("base"), true)
	v, found, err := tx.Read("x")
	if err != nil || !found || string(v) != "base" {
		t.Fatalf("read after install: %q %v %v", v, found, err)
	}
}

func TestInstallBaseAbsent(t *testing.T) {
	m := NewManager()
	m.InstallBase("gone", nil, false)
	tx := m.Begin()
	_, found, err := tx.Read("gone")
	if err != nil || found {
		t.Fatalf("absent base: found=%v err=%v", found, err)
	}
}

func TestInstallBaseIdempotent(t *testing.T) {
	m := NewManager()
	m.InstallBase("x", []byte("first"), true)
	m.InstallBase("x", []byte("second"), true)
	tx := m.Begin()
	v, _, _ := tx.Read("x")
	if string(v) != "first" {
		t.Fatalf("second InstallBase overwrote base: %q", v)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if err := tx.Write("x", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tx.Read("x")
	if err != nil || !found || string(v) != "mine" {
		t.Fatalf("own write: %q %v %v", v, found, err)
	}
}

func TestUncommittedVisibleToLaterTxn(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	must(t, t1.Write("a", []byte("from-t1")))
	v, found, err := t2.Read("a")
	if err != nil || !found || string(v) != "from-t1" {
		t.Fatalf("t2 read of t1's uncommitted write: %q %v %v", v, found, err)
	}
	// t2 now depends on t1: if t1 aborts, t2 aborts too.
	t1.Abort()
	if m.Status(t2.ts) != StatusAborted {
		t.Fatal("cascading abort did not reach t2")
	}
}

func TestEarlierTxnDoesNotSeeLaterWrite(t *testing.T) {
	m := NewManager()
	installAll(m, map[string]string{"a": "base"})
	t1 := m.Begin()
	t2 := m.Begin()
	must(t, t2.Write("a", []byte("from-t2")))
	v, _, err := t1.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "base" {
		t.Fatalf("t1 (earlier) observed later write: %q", v)
	}
}

func TestReadMarkerAbortsLateWriter(t *testing.T) {
	// Figure 5's t2 scenario: t3 (later) reads d0; t2 (earlier) then writes
	// d — t2 must abort.
	m := NewManager()
	installAll(m, map[string]string{"d": "d0"})
	t2 := m.Begin()
	t3 := m.Begin()
	if _, _, err := t3.Read("d"); err != nil {
		t.Fatal(err)
	}
	err := t2.Write("d", []byte("d2"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("late write accepted: %v", err)
	}
	if m.Status(t2.ts) != StatusAborted {
		t.Fatal("t2 not marked aborted")
	}
	conflicts, _ := m.Stats()
	if conflicts != 1 {
		t.Fatalf("conflict aborts = %d", conflicts)
	}
}

func TestWriteAfterOwnReadOK(t *testing.T) {
	m := NewManager()
	installAll(m, map[string]string{"x": "base"})
	tx := m.Begin()
	if _, _, err := tx.Read("x"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("x", []byte("new")); err != nil {
		t.Fatalf("write after own read aborted: %v", err)
	}
}

func TestOperationsOnFinishedTxn(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	must(t, tx.Write("x", []byte("v")))
	must(t, tx.Commit())
	if err := tx.Write("y", []byte("v")); !errors.Is(err, ErrNotActive) {
		t.Fatalf("write on finished txn: %v", err)
	}
	if _, _, err := tx.Read("x"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("read on finished txn: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestFinalizeCommitsFinished(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	must(t, t1.Write("k", []byte("v1")))
	must(t, t1.Commit())
	out := m.FinalizeEpoch()
	if len(out.Committed) != 1 || out.Committed[0] != t1.ts {
		t.Fatalf("committed = %v", out.Committed)
	}
	if len(out.Writes) != 1 || out.Writes[0].Key != "k" || string(out.Writes[0].Value) != "v1" {
		t.Fatalf("write set = %+v", out.Writes)
	}
}

func TestFinalizeAbortsUnfinished(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	must(t, t1.Write("k", []byte("v")))
	// No commit: epoch boundary kills it.
	out := m.FinalizeEpoch()
	if len(out.Committed) != 0 {
		t.Fatalf("committed = %v", out.Committed)
	}
	if len(out.Aborted) != 1 || out.Aborted[0] != t1.ts {
		t.Fatalf("aborted = %v", out.Aborted)
	}
	if len(out.Writes) != 0 {
		t.Fatalf("aborted txn's writes leaked: %+v", out.Writes)
	}
}

func TestFinalizeCascadesThroughFinished(t *testing.T) {
	// t1 writes, t2 reads t1's write and finishes, t1 never finishes:
	// both must abort even though t2 requested commit.
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	must(t, t1.Write("a", []byte("x")))
	if _, _, err := t2.Read("a"); err != nil {
		t.Fatal(err)
	}
	must(t, t2.Commit())
	out := m.FinalizeEpoch()
	if len(out.Committed) != 0 {
		t.Fatalf("committed = %v (t2 observed an aborted write)", out.Committed)
	}
	if len(out.Aborted) != 2 {
		t.Fatalf("aborted = %v", out.Aborted)
	}
}

func TestFinalizeWriteDedup(t *testing.T) {
	// Multiple committed writers of one key: only the last version goes to
	// the write batch (c1 is skipped, only c2 written — §6.2 example).
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	must(t, t1.Write("c", []byte("c1")))
	must(t, t2.Write("c", []byte("c2")))
	must(t, t1.Commit())
	must(t, t2.Commit())
	out := m.FinalizeEpoch()
	if len(out.Committed) != 2 {
		t.Fatalf("committed = %v", out.Committed)
	}
	if len(out.Writes) != 1 || string(out.Writes[0].Value) != "c2" {
		t.Fatalf("write set = %+v", out.Writes)
	}
}

func TestFinalizeTombstone(t *testing.T) {
	m := NewManager()
	installAll(m, map[string]string{"k": "v"})
	t1 := m.Begin()
	must(t, t1.Delete("k"))
	must(t, t1.Commit())
	out := m.FinalizeEpoch()
	if len(out.Writes) != 1 || !out.Writes[0].Tombstone {
		t.Fatalf("write set = %+v", out.Writes)
	}
}

func TestFinalizeResetsChains(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	must(t, t1.Write("k", []byte("v")))
	must(t, t1.Commit())
	m.FinalizeEpoch()
	// Next epoch: the version cache is flushed, reads must re-fetch.
	t2 := m.Begin()
	if _, _, err := t2.Read("k"); !errors.Is(err, ErrNeedFetch) {
		t.Fatalf("read in next epoch: %v", err)
	}
}

func TestAbortAllFateSharing(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	must(t, t1.Write("a", []byte("x")))
	must(t, t1.Commit())
	_ = t2
	aborted := m.AbortAll()
	if len(aborted) != 2 {
		t.Fatalf("aborted = %v, want both (fate sharing)", aborted)
	}
}

func TestDeleteThenReadInTxn(t *testing.T) {
	m := NewManager()
	installAll(m, map[string]string{"k": "v"})
	tx := m.Begin()
	must(t, tx.Delete("k"))
	_, found, err := tx.Read("k")
	if err != nil || found {
		t.Fatalf("read after own delete: found=%v err=%v", found, err)
	}
}

func TestVoluntaryAbortRemovesVersions(t *testing.T) {
	m := NewManager()
	installAll(m, map[string]string{"k": "base"})
	t1 := m.Begin()
	must(t, t1.Write("k", []byte("doomed")))
	t1.Abort()
	t2 := m.Begin()
	v, found, err := t2.Read("k")
	if err != nil || !found || string(v) != "base" {
		t.Fatalf("aborted write visible: %q %v %v", v, found, err)
	}
}

func TestCascadeChain(t *testing.T) {
	// t1 -> t2 -> t3 dependency chain: aborting t1 kills all three.
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	t3 := m.Begin()
	must(t, t1.Write("a", []byte("1")))
	if _, _, err := t2.Read("a"); err != nil {
		t.Fatal(err)
	}
	must(t, t2.Write("b", []byte("2")))
	if _, _, err := t3.Read("b"); err != nil {
		t.Fatal(err)
	}
	t1.Abort()
	for _, tx := range []*Txn{t1, t2, t3} {
		if m.Status(tx.ts) != StatusAborted {
			t.Fatalf("txn %d not aborted by cascade", tx.ts)
		}
	}
	_, casc := m.Stats()
	if casc < 2 {
		t.Fatalf("cascading aborts = %d", casc)
	}
}

// TestSerializability generates random concurrent histories and verifies
// that the committed transactions are serializable in timestamp order:
// replaying them sequentially reproduces every committed read observation.
func TestSerializability(t *testing.T) {
	type op struct {
		read  bool
		key   string
		value string
	}
	type observation struct {
		ts    Timestamp
		reads map[string]string // key -> observed value ("" = absent)
		write map[string]string
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial)+1, 99))
		m := NewManager()
		base := map[string]string{}
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("k%d", i)
			base[k] = "base-" + k
			m.InstallBase(k, []byte(base[k]), true)
		}
		// Interleave ops of several concurrent transactions randomly.
		const numTxns = 8
		txns := make([]*Txn, numTxns)
		obs := make([]*observation, numTxns)
		for i := range txns {
			txns[i] = m.Begin()
			obs[i] = &observation{ts: txns[i].ts, reads: map[string]string{}, write: map[string]string{}}
		}
		live := make([]int, numTxns)
		for i := range live {
			live[i] = i
		}
		for step := 0; step < 60 && len(live) > 0; step++ {
			li := rng.IntN(len(live))
			i := live[li]
			tx := txns[i]
			key := fmt.Sprintf("k%d", rng.IntN(6))
			var err error
			if rng.IntN(2) == 0 {
				var v []byte
				var found bool
				v, found, err = tx.Read(key)
				if err == nil {
					if found {
						obs[i].reads[key] = string(v)
					} else {
						obs[i].reads[key] = ""
					}
				}
			} else {
				val := fmt.Sprintf("t%d-s%d", tx.ts, step)
				err = tx.Write(key, []byte(val))
				if err == nil {
					obs[i].write[key] = val
				}
			}
			if errors.Is(err, ErrAborted) {
				live = append(live[:li], live[li+1:]...)
			} else if err != nil && !errors.Is(err, ErrNeedFetch) {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		for _, i := range live {
			txns[i].Commit()
		}
		out := m.FinalizeEpoch()
		committed := map[Timestamp]*observation{}
		for i := range txns {
			for _, ts := range out.Committed {
				if obs[i].ts == ts {
					committed[ts] = obs[i]
				}
			}
		}
		// Sequential replay in timestamp order.
		state := map[string]string{}
		for k, v := range base {
			state[k] = v
		}
		for _, ts := range out.Committed {
			o := committed[ts]
			for k, got := range o.reads {
				// A read observed during execution must match what the
				// sequential replay would produce at this point, UNLESS the
				// transaction later overwrote the key itself (read-your-
				// writes complicates per-key ordering; skip those).
				if _, selfWrote := o.write[k]; selfWrote {
					continue
				}
				if state[k] != got {
					t.Fatalf("trial %d: txn %d read %s=%q, serial replay says %q", trial, ts, k, got, state[k])
				}
			}
			for k, v := range o.write {
				state[k] = v
			}
		}
		// The epoch write set must equal the serial replay's final state
		// restricted to written keys.
		for _, w := range out.Writes {
			if state[w.Key] != string(w.Value) {
				t.Fatalf("trial %d: write set %s=%q, serial state %q", trial, w.Key, w.Value, state[w.Key])
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestEpochAllocBudget pins the epoch as the allocation unit: an epoch of 64
// transactions shaped like the benchmark's (two fetched reads and one blind
// write to distinct keys) costs a transaction chunk, the Outcome's three
// slices and nothing per transaction, version or key.
func TestEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const txns, epochs = 64, 50
	keys := make([]string, 3*txns)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	value := []byte("value")
	m := NewManager()
	m.SetWriteBudget(1, txns, func(string) int { return 0 })
	committed := 0
	epoch := func() {
		for i := 0; i < txns; i++ {
			tx := m.Begin()
			r0, r1, w := keys[3*i], keys[3*i+1], keys[3*i+2]
			m.InstallBase(r0, value, true)
			m.InstallBase(r1, value, i%2 == 0)
			if _, _, err := tx.Read(r0); err != nil {
				t.Fatal(err)
			}
			if _, _, err := tx.Read(r1); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(w, value); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		out := m.FinalizeEpoch()
		committed += len(out.Committed)
		if len(out.Writes) != txns {
			t.Fatalf("write set of %d keys, want %d", len(out.Writes), txns)
		}
	}
	epoch() // grow the slabs and maps
	epoch()
	perEpoch := testing.AllocsPerRun(epochs, epoch)
	t.Logf("%.1f allocations per epoch of %d transactions", perEpoch, txns)
	if perTxn := perEpoch / txns; perTxn > 0.25 {
		t.Errorf("%.3f allocations per transaction, budget 0.25", perTxn)
	}
	if committed != (epochs+3)*txns {
		t.Fatalf("%d transactions committed, want %d", committed, (epochs+3)*txns)
	}
}
