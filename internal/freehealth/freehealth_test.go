package freehealth

import (
	"errors"
	"testing"

	"obladi/internal/enginetest"
	"obladi/internal/kvtxn"
)

func testEngines(t *testing.T) []enginetest.Engine {
	t.Helper()
	engines := enginetest.Baselines()
	ob, err := enginetest.NewObladi(enginetest.ObladiOptions{ValueSize: MinValueSize * 2, NumBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ob4, err := enginetest.NewObladi(enginetest.ObladiOptions{ValueSize: MinValueSize * 2, NumBlocks: 1024, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The same engine reached through the multiplexed wire protocol: the
	// identical business logic must hold over the full client stack.
	obmux, err := enginetest.NewObladiMux(enginetest.ObladiOptions{ValueSize: MinValueSize * 2, NumBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, ob, ob4, obmux)
	return engines
}

func TestTwentyOneTransactionTypes(t *testing.T) {
	names := TxnNames()
	if len(names) != 21 {
		t.Fatalf("FreeHealth defines %d transaction types, paper says 21", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate transaction name %q", n)
		}
		seen[n] = true
	}
}

func TestLoadAndChart(t *testing.T) {
	cfg := Defaults()
	for _, e := range testEngines(t) {
		t.Run(e.Name, func(t *testing.T) {
			defer e.DB.Close()
			if err := Load(e.DB, cfg); err != nil {
				t.Fatalf("load: %v", err)
			}
			// The chart's two dependent read sets take two read batches, and
			// an epoch boundary between them aborts it (fate sharing). Retry
			// a few such aborts; needing more means the abort rate rose.
			const attempts = 3
			client := NewClient(e.DB, cfg, 3)
			var err error
			for i := 0; i < attempts; i++ {
				if err = client.GetPatientChart(); !errors.Is(err, kvtxn.ErrAborted) {
					break
				}
			}
			if err != nil {
				t.Fatalf("chart: %v", err)
			}
			if v := e.Violation(); v != nil {
				t.Fatal(v)
			}
		})
	}
}

func TestMixRuns(t *testing.T) {
	cfg := Defaults()
	for _, e := range testEngines(t) {
		t.Run(e.Name, func(t *testing.T) {
			defer e.DB.Close()
			if err := Load(e.DB, cfg); err != nil {
				t.Fatal(err)
			}
			client := NewClient(e.DB, cfg, 17)
			n := 60
			if e.Name == "obladi" {
				n = 15
			}
			ran := map[string]int{}
			for i := 0; i < n; i++ {
				name, err := client.Next()
				if err != nil && !errors.Is(err, kvtxn.ErrAborted) {
					t.Fatalf("%s: %v", name, err)
				}
				if err == nil {
					ran[name]++
				}
			}
			if len(ran) < 4 {
				t.Fatalf("mix too narrow: %v", ran)
			}
		})
	}
}

func TestEpisodeLifecycle(t *testing.T) {
	cfg := Defaults()
	e := enginetest.Baselines()[0]
	defer e.DB.Close()
	if err := Load(e.DB, cfg); err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.DB, cfg, 5)
	for i := 0; i < 5; i++ {
		if err := client.CreateEpisode(); err != nil && !errors.Is(err, kvtxn.ErrAborted) {
			t.Fatal(err)
		}
		if err := client.AddEpisodeContent(); err != nil && !errors.Is(err, kvtxn.ErrAborted) {
			t.Fatal(err)
		}
		if err := client.GetEpisode(); err != nil && !errors.Is(err, kvtxn.ErrAborted) {
			t.Fatal(err)
		}
	}
	// Episode counters must be consistent with episode rows.
	err := kvtxn.RunWithRetries(e.DB, 20, func(tx kvtxn.Txn) error {
		for p := 0; p < cfg.Patients; p++ {
			cnt, err := mustTuple(tx, episodeCountKey(p))
			if err != nil {
				return err
			}
			n := int(cnt.MustInt(0))
			if n == 0 {
				continue
			}
			if _, err := mustTuple(tx, episodeKey(p, n-1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrescribeRecordsRx(t *testing.T) {
	cfg := Defaults()
	e := enginetest.Baselines()[0]
	defer e.DB.Close()
	if err := Load(e.DB, cfg); err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.DB, cfg, 9)
	for i := 0; i < 8; i++ {
		if err := client.Prescribe(); err != nil && !errors.Is(err, kvtxn.ErrAborted) {
			t.Fatal(err)
		}
	}
	total := 0
	err := kvtxn.RunWithRetries(e.DB, 20, func(tx kvtxn.Txn) error {
		total = 0
		for p := 0; p < cfg.Patients; p++ {
			cnt, err := mustTuple(tx, rxCountKey(p))
			if err != nil {
				return err
			}
			total += int(cnt.MustInt(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no prescriptions recorded")
	}
}

func TestCreatePatientAllocatesIDs(t *testing.T) {
	cfg := Defaults()
	e := enginetest.Baselines()[0]
	defer e.DB.Close()
	if err := Load(e.DB, cfg); err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.DB, cfg, 21)
	for i := 0; i < 3; i++ {
		if err := client.CreatePatient(); err != nil && !errors.Is(err, kvtxn.ErrAborted) {
			t.Fatal(err)
		}
	}
	err := kvtxn.RunWithRetries(e.DB, 20, func(tx kvtxn.Txn) error {
		cnt, err := mustTuple(tx, patientCountKey())
		if err != nil {
			return err
		}
		if int(cnt.MustInt(0)) < cfg.Patients+1 {
			return errors.New("patient counter did not advance")
		}
		// The newest patient must exist and be indexed.
		id := int(cnt.MustInt(0)) - 1
		if _, err := mustTuple(tx, patientKey(id)); err != nil {
			return err
		}
		if _, err := mustTuple(tx, patientNameKey(patientName(id))); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeactivatePatient(t *testing.T) {
	cfg := Defaults()
	e := enginetest.Baselines()[0]
	defer e.DB.Close()
	if err := Load(e.DB, cfg); err != nil {
		t.Fatal(err)
	}
	client := NewClient(e.DB, cfg, 23)
	if err := client.DeactivatePatient(); err != nil {
		t.Fatal(err)
	}
	// At least one patient must be inactive now.
	inactive := 0
	err := kvtxn.RunWithRetries(e.DB, 20, func(tx kvtxn.Txn) error {
		inactive = 0
		for p := 0; p < cfg.Patients; p++ {
			t, err := mustTuple(tx, patientKey(p))
			if err != nil {
				return err
			}
			if t[1] == "0" {
				inactive++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inactive == 0 {
		t.Fatal("no patient deactivated")
	}
}
