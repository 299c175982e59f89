package clientproto_test

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/smallbank"
)

// TestKillRestartDurability is the end-to-end crash drill for the durable
// store, at one shard and at two: real obladi-proxy + obladi-storage
// binaries with -data-dir (a logheap group), smallbank traffic, a SIGKILL of
// the storage server mid-epoch, a restart on the same directory, and a fresh
// proxy recovering from the recovered store. The workload runs only the
// total-preserving smallbank transactions (SendPayment, Amalgamate), so
// whichever prefix of epochs survived the kill, the money-conservation
// invariant must hold exactly.
func TestKillRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches binaries")
	}
	storageBin, proxyBin := buildBinaries(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			killRestart(t, storageBin, proxyBin, shards)
		})
	}
}

func killRestart(t *testing.T, storageBin, proxyBin string, shards int) {
	dataDir := filepath.Join(t.TempDir(), "store")
	const seed = "kill-restart-e2e"

	// The storage server prints one "serving" line per shard.
	markers, extracts := []string{"obladi-storage: serving"}, []func(string) string{extractLastField}
	if shards > 1 {
		markers, extracts = nil, nil
		for i := 0; i < shards; i++ {
			markers = append(markers, fmt.Sprintf("obladi-storage: shard %d serving", i))
			extracts = append(extracts, extractLastField)
		}
	}
	launchStorage := func() (string, *exec.Cmd) {
		addrs, cmd := launchSeq(t, storageBin, []string{"-listen", "127.0.0.1:0", "-buckets", "4096",
			"-data-dir", dataDir, "-shards", fmt.Sprint(shards)}, markers, extracts)
		return strings.Join(addrs, ","), cmd
	}
	storageAddr, storageCmd := launchStorage()
	proxyArgs := func(storage string) []string {
		return []string{"-storage", storage, "-shards", fmt.Sprint(shards), "-listen", "127.0.0.1:0",
			"-keys", "1024", "-batch-interval", "1ms", "-seed", seed}
	}
	proxyAddr, _ := launch(t, proxyBin, proxyArgs(storageAddr), "clients=", extractClientsField)

	cfg := smallbank.Config{Accounts: 16, HotspotPct: 0, Seed: 7}
	mc, err := clientproto.DialMux(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	db := clientproto.MuxDB{C: mc}
	if err := smallbank.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	total, err := smallbank.TotalFunds(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Conservation-only traffic from a background worker; errors are
	// expected once the storage server dies under it.
	client := smallbank.NewClient(db, cfg, 99)
	var committed atomic.Int64
	stop := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%3 == 2 {
				err = client.Amalgamate(i%cfg.Accounts, (i+5)%cfg.Accounts)
			} else {
				err = client.SendPayment(i%cfg.Accounts, (i+3)%cfg.Accounts, 1+int64(i%7))
			}
			if err == nil {
				committed.Add(1)
			}
			i++
		}
	}()

	// Let a healthy stretch of epochs commit, then pull the plug mid-epoch:
	// with a 1ms batch interval the server dies with batches in flight.
	deadline := time.After(30 * time.Second)
	for committed.Load() < 25 {
		select {
		case <-deadline:
			t.Fatalf("only %d transactions committed within 30s", committed.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := storageCmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	storageCmd.Wait()
	close(stop)
	<-workerDone
	mc.Close()
	preKill := committed.Load()
	t.Logf("killed storage after %d committed transactions", preKill)

	// Restart storage on the same data dir; it must replay to the last
	// committed epoch. Then a fresh proxy (same key seed) runs recovery
	// against the recovered store.
	storageAddr2, _ := launchStorage()
	proxyAddr2, _ := launch(t, proxyBin, proxyArgs(storageAddr2), "clients=", extractClientsField)

	mc2, err := clientproto.DialMux(proxyAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	db2 := clientproto.MuxDB{C: mc2}
	recovered, err := smallbank.TotalFunds(db2, cfg)
	if err != nil {
		t.Fatalf("reading balances after recovery: %v", err)
	}
	if recovered != total {
		t.Fatalf("money not conserved across the crash: %d before, %d after", total, recovered)
	}
	// The recovered deployment must still make progress.
	client2 := smallbank.NewClient(db2, cfg, 100)
	var payErr error
	for attempt := 0; attempt < 20; attempt++ {
		if payErr = client2.SendPayment(0, 1, 5); payErr == nil {
			break
		}
	}
	if payErr != nil {
		t.Fatalf("transaction after recovery: %v", payErr)
	}
	after, err := smallbank.TotalFunds(db2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after != total {
		t.Fatalf("money not conserved after recovery traffic: %d vs %d", after, total)
	}
}
