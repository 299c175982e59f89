package baseline

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"obladi/internal/kvtxn"
	"obladi/internal/storage"
)

// engines returns constructors for both baselines, so every test runs
// against each.
func engines() map[string]func(Store) kvtxn.DB {
	return map[string]func(Store) kvtxn.DB{
		"nopriv": func(s Store) kvtxn.DB { return NewNoPriv(s) },
		"twopl":  func(s Store) kvtxn.DB { return NewTwoPL(s) },
	}
}

// memStore returns an unpaced store.
func memStore() *MemStore { return NewMemStore(storage.ProfileDummy) }

func TestBasicCommit(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			tx := db.Begin()
			if err := tx.Write("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx2 := db.Begin()
			v, found, err := tx2.Read("k")
			if err != nil || !found || string(v) != "v" {
				t.Fatalf("read: %q %v %v", v, found, err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReadYourWrites(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			tx := db.Begin()
			must(t, tx.Write("k", []byte("mine")))
			v, found, err := tx.Read("k")
			if err != nil || !found || string(v) != "mine" {
				t.Fatalf("own write: %q %v %v", v, found, err)
			}
			must(t, tx.Commit())
		})
	}
}

func TestAbortRollsBack(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			setup := db.Begin()
			must(t, setup.Write("k", []byte("original")))
			must(t, setup.Commit())
			tx := db.Begin()
			must(t, tx.Write("k", []byte("doomed")))
			must(t, tx.Write("fresh", []byte("doomed-too")))
			tx.Abort()
			check := db.Begin()
			v, found, err := check.Read("k")
			if err != nil || !found || string(v) != "original" {
				t.Fatalf("k after abort: %q %v %v", v, found, err)
			}
			_, found, err = check.Read("fresh")
			if err != nil || found {
				t.Fatalf("fresh after abort: found=%v err=%v", found, err)
			}
			must(t, check.Commit())
		})
	}
}

func TestDelete(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			tx := db.Begin()
			must(t, tx.Write("k", []byte("v")))
			must(t, tx.Commit())
			tx2 := db.Begin()
			must(t, tx2.Delete("k"))
			must(t, tx2.Commit())
			tx3 := db.Begin()
			_, found, err := tx3.Read("k")
			if err != nil || found {
				t.Fatalf("after delete: found=%v err=%v", found, err)
			}
			must(t, tx3.Commit())
		})
	}
}

func TestReadMany(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			setup := db.Begin()
			for i := 0; i < 5; i++ {
				must(t, setup.Write(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
			}
			must(t, setup.Commit())
			tx := db.Begin()
			res, err := tx.ReadMany([]string{"k0", "k3", "missing"})
			if err != nil {
				t.Fatal(err)
			}
			if !res[0].Found || string(res[0].Value) != "v0" {
				t.Fatalf("k0 = %+v", res[0])
			}
			if !res[1].Found || string(res[1].Value) != "v3" {
				t.Fatalf("k3 = %+v", res[1])
			}
			if res[2].Found {
				t.Fatal("missing key found")
			}
			must(t, tx.Commit())
		})
	}
}

func TestNoPrivUncommittedVisibleAndCascade(t *testing.T) {
	db := NewNoPriv(memStore())
	defer db.Close()
	t1 := db.Begin()
	must(t, t1.Write("a", []byte("from-t1")))
	t2 := db.Begin()
	v, found, err := t2.Read("a")
	if err != nil || !found || string(v) != "from-t1" {
		t.Fatalf("t2 read: %q %v %v", v, found, err)
	}
	t1.Abort()
	if err := t2.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("t2 commit after dependency abort: %v", err)
	}
}

func TestNoPrivCommitWaitsForDependency(t *testing.T) {
	db := NewNoPriv(memStore())
	defer db.Close()
	t1 := db.Begin()
	must(t, t1.Write("a", []byte("x")))
	t2 := db.Begin()
	if _, _, err := t2.Read("a"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- t2.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("t2 committed before t1 decided: %v", err)
	default:
	}
	must(t, t1.Commit())
	if err := <-done; err != nil {
		t.Fatalf("t2 commit after t1 commit: %v", err)
	}
}

func TestNoPrivConflictAbort(t *testing.T) {
	db := NewNoPriv(memStore())
	defer db.Close()
	setup := db.Begin()
	must(t, setup.Write("d", []byte("d0")))
	must(t, setup.Commit())
	t2 := db.Begin()
	t3 := db.Begin()
	if _, _, err := t3.Read("d"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("d", []byte("late")); !errors.Is(err, ErrAborted) {
		t.Fatalf("late write: %v", err)
	}
	must(t, t3.Commit())
}

func TestTwoPLWaitDie(t *testing.T) {
	db := NewTwoPL(memStore())
	defer db.Close()
	older := db.Begin() // smaller ts
	younger := db.Begin()
	must(t, older.Write("k", []byte("older")))
	// Younger requesting a lock held by older must die, not wait.
	err := younger.Write("k", []byte("younger"))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("wait-die: younger got %v", err)
	}
	must(t, older.Commit())
}

func TestTwoPLOlderWaits(t *testing.T) {
	db := NewTwoPL(memStore())
	defer db.Close()
	older := db.Begin()
	younger := db.Begin()
	must(t, younger.Write("k", []byte("younger")))
	done := make(chan error, 1)
	go func() { done <- older.Write("k", []byte("older")) }()
	select {
	case err := <-done:
		t.Fatalf("older did not wait: %v", err)
	default:
	}
	must(t, younger.Commit())
	if err := <-done; err != nil {
		t.Fatalf("older write after younger release: %v", err)
	}
	must(t, older.Commit())
}

func TestTwoPLSharedReaders(t *testing.T) {
	db := NewTwoPL(memStore())
	defer db.Close()
	setup := db.Begin()
	must(t, setup.Write("k", []byte("v")))
	must(t, setup.Commit())
	r1 := db.Begin()
	r2 := db.Begin()
	if _, _, err := r1.Read("k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.Read("k"); err != nil {
		t.Fatalf("concurrent shared read blocked: %v", err)
	}
	must(t, r1.Commit())
	must(t, r2.Commit())
}

func TestTwoPLLockUpgrade(t *testing.T) {
	db := NewTwoPL(memStore())
	defer db.Close()
	setup := db.Begin()
	must(t, setup.Write("k", []byte("v")))
	must(t, setup.Commit())
	tx := db.Begin()
	if _, _, err := tx.Read("k"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k", []byte("v2")); err != nil {
		t.Fatalf("sole-holder upgrade failed: %v", err)
	}
	must(t, tx.Commit())
}

// TestEnginesConcurrentCorrectness hammers each engine with concurrent
// increments and verifies no lost updates among committed transactions.
func TestEnginesConcurrentCorrectness(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			db := mk(memStore())
			defer db.Close()
			setup := db.Begin()
			must(t, setup.Write("counter", []byte{0}))
			must(t, setup.Commit())
			var mu sync.Mutex
			committed := 0
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(g), 7))
					for i := 0; i < 25; i++ {
						err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
							v, _, err := tx.Read("counter")
							if err != nil {
								return err
							}
							return tx.Write("counter", []byte{v[0] + 1})
						})
						if err != nil {
							continue
						}
						mu.Lock()
						committed++
						mu.Unlock()
						_ = rng
					}
				}(g)
			}
			wg.Wait()
			check := db.Begin()
			v, _, err := check.Read("counter")
			if err != nil {
				t.Fatal(err)
			}
			check.Commit()
			if int(v[0]) != committed%256 {
				t.Fatalf("counter = %d, committed increments = %d (lost updates)", v[0], committed)
			}
			if committed == 0 {
				t.Fatal("nothing committed")
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// keyStore is a Store that records the keys it is handed to keep.
type keyStore struct {
	Store
	mu   sync.Mutex
	kept []string
}

func (s *keyStore) Put(key string, value []byte) error {
	s.mu.Lock()
	s.kept = append(s.kept, key)
	s.mu.Unlock()
	return s.Store.Put(key, value)
}

// TestEnginesKeepTheirOwnKeys writes, deletes and reads through keys that
// alias one scratch buffer, the way a wire server's carved keys alias their
// chunk, and checks that nothing an engine keeps past the transaction — the
// store's entries, NoPriv's chains — aliases it (kvtxn.Txn's key rule).
func TestEnginesKeepTheirOwnKeys(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			store := &keyStore{Store: memStore()}
			db := mk(store)
			defer db.Close()
			scratch := make([]byte, 0, 256)
			carve := func(key string) string {
				start := len(scratch)
				scratch = append(scratch, key...)
				return unsafe.String(&scratch[start], len(key))
			}
			for i := 0; i < 8; i++ {
				tx := db.Begin()
				k := carve(fmt.Sprintf("k%d", i%4))
				if _, _, err := tx.Read(k); err != nil {
					t.Fatal(err)
				}
				must(t, tx.Write(k, []byte("v")))
				if i%3 == 2 {
					must(t, tx.Delete(carve(fmt.Sprintf("k%d", i%4))))
				}
				must(t, tx.Commit())
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(scratch)))
			aliases := func(s string) bool {
				d := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				return d >= lo && d < lo+uintptr(cap(scratch))
			}
			if len(store.kept) == 0 {
				t.Fatal("the store was handed no key")
			}
			for _, k := range store.kept {
				if aliases(k) {
					t.Fatalf("the store keeps the caller's key %q", k)
				}
			}
			if np, ok := db.(*NoPriv); ok {
				for k, c := range np.chains {
					if aliases(k) || aliases(c.key) {
						t.Fatalf("chain %q keeps the caller's key", k)
					}
				}
			}
		})
	}
}
