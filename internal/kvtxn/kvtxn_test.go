package kvtxn

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"obladi/internal/core"
	"obladi/internal/cryptoutil"
	"obladi/internal/ringoram"
	"obladi/internal/storage"
)

func newProxyDB(t *testing.T) ProxyDB {
	t.Helper()
	cfg := core.Config{
		Params: ringoram.Params{
			NumBlocks: 256, Z: 4, S: 6, A: 4, KeySize: 24, ValueSize: 64, Seed: 3,
		},
		Key:               cryptoutil.KeyFromSeed([]byte("kvtxn")),
		ReadBatches:       4,
		ReadBatchSize:     8,
		WriteBatchSize:    16,
		BatchInterval:     300 * time.Microsecond,
		DisableDurability: true,
	}
	backend := storage.NewMemBackend(cfg.Params.Geometry().NumBuckets)
	p, err := core.New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := ProxyDB{P: p}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestProxyDBRoundTrip(t *testing.T) {
	db := newProxyDB(t)
	err := RunWithRetries(db, 10, func(tx Txn) error {
		return tx.Write("k", []byte("v"))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = RunWithRetries(db, 10, func(tx Txn) error {
		v, found, err := tx.Read("k")
		if err != nil {
			return err
		}
		if !found || string(v) != "v" {
			return fmt.Errorf("read %q %v", v, found)
		}
		res, err := tx.ReadMany([]string{"k", "missing"})
		if err != nil {
			return err
		}
		if !res[0].Found || res[1].Found {
			return fmt.Errorf("readmany: %+v", res)
		}
		return tx.Delete("k")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProxyDBWrapsAborts(t *testing.T) {
	db := newProxyDB(t)
	// An epoch-capacity error must surface as kvtxn.ErrAborted so generic
	// retry loops work.
	tx := db.Begin()
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = tx.Write(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err == nil {
		t.Skip("write batch never filled")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("capacity error not wrapped: %v", err)
	}
	tx.Abort()
}

func TestRunWithRetriesGivesUp(t *testing.T) {
	db := newProxyDB(t)
	calls := 0
	err := RunWithRetries(db, 3, func(tx Txn) error {
		calls++
		return fmt.Errorf("%w: synthetic", ErrAborted)
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 { // initial + 3 retries
		t.Fatalf("fn called %d times", calls)
	}
}

func TestRunWithRetriesStopsOnRealError(t *testing.T) {
	db := newProxyDB(t)
	boom := errors.New("boom")
	calls := 0
	err := RunWithRetries(db, 5, func(tx Txn) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{""},
		{"a"},
		{"a", "b", "c"},
		{"with|pipe", "with,comma", "with\x00nul"},
		{string(make([]byte, 1000))},
	}
	for i, tc := range cases {
		enc := tc.Encode()
		got, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(tc) {
			t.Fatalf("case %d: %d fields, want %d", i, len(got), len(tc))
		}
		for j := range tc {
			if got[j] != tc[j] {
				t.Fatalf("case %d field %d: %q != %q", i, j, got[j], tc[j])
			}
		}
	}
}

func TestTupleQuick(t *testing.T) {
	f := func(fields []string) bool {
		tup := Tuple(fields)
		got, err := DecodeTuple(tup.Encode())
		if err != nil {
			return false
		}
		if len(got) != len(fields) {
			return false
		}
		for i := range fields {
			if got[i] != fields[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCorruptRejected(t *testing.T) {
	if _, err := DecodeTuple(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecodeTuple([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage varint accepted")
	}
	good := Tuple{"abc", "def"}.Encode()
	if _, err := DecodeTuple(good[:len(good)-2]); err == nil {
		t.Fatal("truncated tuple accepted")
	}
}

func TestTupleIntHelpers(t *testing.T) {
	tup := Tuple{"42", "notanumber"}
	v, err := tup.Int(0)
	if err != nil || v != 42 {
		t.Fatalf("Int(0) = %d, %v", v, err)
	}
	if _, err := tup.Int(1); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := tup.Int(5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	tup.SetInt(0, -7)
	if tup.MustInt(0) != -7 {
		t.Fatalf("SetInt round trip: %s", tup[0])
	}
	if Itoa(123) != "123" {
		t.Fatal("Itoa")
	}
}
