// Banking: concurrent money transfers under serializable isolation.
// Demonstrates conflict handling (MVTSO aborts + retries) and the
// end-of-run conservation check, SmallBank-style.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"obladi"
)

const (
	accounts       = 16
	initialBalance = 1000
	clients        = 6
	transfersEach  = 10
)

func accountKey(i int) string { return fmt.Sprintf("acct/%02d", i) }

func main() {
	db, err := obladi.Open(obladi.Options{
		MaxKeys:        256,
		BatchInterval:  time.Millisecond,
		WriteBatchSize: 64,
		KeySeed:        []byte("bank-demo"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Open accounts.
	err = db.Update(func(tx *obladi.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Write(accountKey(i), []byte(fmt.Sprint(initialBalance))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %d accounts with $%d each\n", accounts, initialBalance)

	// Concurrent clients transfer money; conflicting transfers abort and
	// retry (delayed-visibility commits decide fates at epoch boundaries).
	transfer := func(from, to, amount int) error {
		return db.Update(func(tx *obladi.Txn) error {
			res, err := tx.ReadMany([]string{accountKey(from), accountKey(to)})
			if err != nil {
				return err
			}
			var balFrom, balTo int
			fmt.Sscanf(string(res[0].Value), "%d", &balFrom)
			fmt.Sscanf(string(res[1].Value), "%d", &balTo)
			if balFrom < amount {
				return nil // declined, but still a valid transaction
			}
			if err := tx.Write(accountKey(from), []byte(fmt.Sprint(balFrom-amount))); err != nil {
				return err
			}
			return tx.Write(accountKey(to), []byte(fmt.Sprint(balTo+amount)))
		})
	}

	var done, failed int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < transfersEach; i++ {
				from := (c + i) % accounts
				to := (c*3 + i*7 + 1) % accounts
				if from == to {
					to = (to + 1) % accounts
				}
				if err := transfer(from, to, 25); err != nil {
					if errors.Is(err, obladi.ErrAborted) {
						atomic.AddInt64(&failed, 1)
						continue
					}
					log.Fatal(err)
				}
				atomic.AddInt64(&done, 1)
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("transfers: %d committed, %d gave up after retries\n", done, failed)

	// Conservation: the total must be exactly accounts * initialBalance.
	var total int
	err = db.View(func(tx *obladi.Txn) error {
		total = 0
		keys := make([]string, accounts)
		for i := range keys {
			keys[i] = accountKey(i)
		}
		res, err := tx.ReadMany(keys)
		if err != nil {
			return err
		}
		for _, kv := range res {
			var b int
			fmt.Sscanf(string(kv.Value), "%d", &b)
			total += b
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	want := accounts * initialBalance
	fmt.Printf("total funds: $%d (expected $%d)\n", total, want)
	if total != want {
		log.Fatal("MONEY NOT CONSERVED — serializability violated")
	}
	st := db.Stats()
	fmt.Printf("epochs=%d committed=%d aborted=%d conflictAborts=%d\n",
		st.Epochs, st.Committed, st.Aborted, st.ConflictAborts)
}
