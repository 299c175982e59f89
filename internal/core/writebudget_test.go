package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"obladi/internal/mvtso"
	"obladi/internal/storage"
)

// TestWriteBudgetBoundaryRaceNoFailStop is the regression test for a race
// the 10k-session scale harness exposed: write-slot reservations lived in a
// proxy-side per-epoch map that sealEpoch reset a beat *after*
// ccu.FinalizeEpoch, so a transaction beginning in that window reserved
// against the dying epoch, lost the reservation in the reset, and its writes
// landed in the next epoch's finalize with no slot — tripping the seal's
// "write set exceeds write batch" guard and fail-stopping the whole proxy.
//
// With the budget moved into the CCU (charged and reset under the CCU lock,
// atomically with the generation), the guard is unreachable. The test
// hammers write-commit traffic against a tiny write batch on a fast epoch
// cadence; before the fix it fail-stops within a second or two, after it
// every error is an ordinary retryable abort and the proxy stays up.
func TestWriteBudgetBoundaryRaceNoFailStop(t *testing.T) {
	cfg := testConfig(23)
	cfg.BatchInterval = 300 * time.Microsecond
	cfg.ReadBatches = 1
	cfg.ReadBatchSize = 4
	cfg.WriteBatchSize = 2 // tiny: every epoch's budget is contended
	cfg.DisableDurability = true
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 8
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				tx := p.Begin()
				err := tx.Write(fmt.Sprintf("w%d-%d", w, i%8), []byte("v"))
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				if err != nil && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrEpochFull) {
					errCh <- fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("proxy left the retryable-abort space under boundary churn (old race fail-stopped here): %v", err)
	default:
	}
	if _, _, err := p.Begin().Read("alive"); errors.Is(err, ErrClosed) {
		t.Fatal("proxy fail-stopped during the run")
	}
}

// TestWriteOverBudgetAbortsWholeTxn pins the client-visible contract of a
// budget refusal: ErrEpochFull, and the whole transaction aborts (a txn
// whose writes cannot all land this epoch must not half-commit) — the same
// contract the seed's proxy-side reserveWriteSlot gave.
func TestWriteOverBudgetAbortsWholeTxn(t *testing.T) {
	cfg := testConfig(24)
	cfg.WriteBatchSize = 2
	p, _, _ := testProxy(t, cfg)

	tx := p.Begin()
	if err := tx.Write("k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k2", []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := tx.Write("k3", []byte("v"))
	if !errors.Is(err, ErrEpochFull) {
		t.Fatalf("over-budget write: %v, want ErrEpochFull", err)
	}
	// The refusal aborted the whole transaction: nothing half-commits.
	if err := p.Advance(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteConflictMapsToErrAborted: a write's conflict abort reaches the
// client as the proxy's ErrAborted, not the CCU's, and reads as the CCU's
// error behind the proxy's.
func TestWriteConflictMapsToErrAborted(t *testing.T) {
	cause := &mvtso.ConflictError{Key: "k", Reader: 7, Writer: 3}
	err := (&Txn{}).mapWriteErr(cause)
	if !errors.Is(err, ErrAborted) || errors.Is(err, mvtso.ErrAborted) {
		t.Fatalf("a conflict abort maps to %v: want a match for ErrAborted and none for mvtso.ErrAborted", err)
	}
	if want := fmt.Sprintf("%v: %v", ErrAborted, cause); err.Error() != want {
		t.Fatalf("a conflict abort reads %q, want %q", err, want)
	}
}
