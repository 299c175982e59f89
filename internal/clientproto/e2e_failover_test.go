package clientproto_test

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
	"obladi/internal/smallbank"
)

func extractReplicaField(line string) string {
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "replica=") {
			return strings.TrimPrefix(f, "replica=")
		}
	}
	return ""
}

// launchSeq starts a binary and extracts one value per (marker, extract)
// pair, in the order the process prints them — for processes that announce
// several addresses (a primary with a standby prints replica= then clients=).
func launchSeq(t *testing.T, bin string, args []string, markers []string, extracts []func(string) string) ([]string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	out := make([]string, 0, len(markers))
	deadline := time.After(30 * time.Second)
	for len(out) < len(markers) {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatalf("%s exited before printing %q", bin, markers[len(out)])
			}
			if strings.Contains(line, markers[len(out)]) {
				v := extracts[len(out)](line)
				if v == "" {
					t.Fatalf("%s: could not extract from %q", bin, line)
				}
				out = append(out, v)
			}
		case <-deadline:
			t.Fatalf("%s: no %q line within 30s", bin, markers[len(out)])
		}
	}
	return out, cmd
}

// TestFailoverKillPrimary is the end-to-end failover drill the subsystem
// exists for: real binaries — durable obladi-storage, a primary obladi-proxy
// holding the lease of a standby obladi-proxy — with smallbank traffic
// through a failover-aware client, a SIGKILL of the primary mid-epoch, and
// the standby promoting on lease expiry. It must hold zero acknowledged-commit
// loss (every marker whose Commit returned nil is readable afterwards),
// money conservation, and sub-lease-order failover (bounded here loosely for
// CI scheduling noise).
func TestFailoverKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches binaries")
	}
	storageBin, proxyBin := buildBinaries(t)
	dataDir := filepath.Join(t.TempDir(), "store")
	const seed = "failover-e2e"

	storageAddr, _ := launch(t, storageBin,
		[]string{"-listen", "127.0.0.1:0", "-buckets", "4096", "-data-dir", dataDir},
		"obladi-storage: serving", extractLastField)

	commonArgs := []string{"-storage", storageAddr, "-listen", "127.0.0.1:0",
		"-keys", "1024", "-batch-interval", "1ms", "-seed", seed, "-lease", "500ms"}
	primaryCmdArgs := append(append([]string{}, commonArgs...),
		"-replica-listen", "127.0.0.1:0")
	primaryOut, primaryCmd := launchSeq(t, proxyBin, primaryCmdArgs,
		[]string{"replica=", "clients="},
		[]func(string) string{extractReplicaField, extractClientsField})
	replicaAddr, primaryAddr := primaryOut[0], primaryOut[1]

	standbyArgs := append(append([]string{}, commonArgs...),
		"-standby-of", replicaAddr)
	standbyAddr, _ := launch(t, proxyBin, standbyArgs, "clients=", extractClientsField)

	fc, err := clientproto.DialMuxFailover(clientproto.FailoverConfig{
		Addrs:   []string{primaryAddr, standbyAddr},
		MaxWait: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db := clientproto.FailoverDB{C: fc}

	cfg := smallbank.Config{Accounts: 16, HotspotPct: 0, Seed: 7}
	if err := smallbank.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	total, err := smallbank.TotalFunds(db, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1: conservation-only smallbank traffic. Worker 2: unique marker
	// keys, recording exactly which ones the proxy ACKNOWLEDGED — the set the
	// failover contract promises to preserve. Both ride through the kill.
	var committed atomic.Int64
	var ackedMu sync.Mutex
	acked := []string{} // markers whose Commit returned nil
	stop := make(chan struct{})
	var workers sync.WaitGroup

	client := smallbank.NewClient(db, cfg, 99)
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; ; i++ {
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
		}
	}()
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("marker-%05d", i)
			tx := db.Begin()
			err := tx.Write(key, []byte("m"))
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if err == nil {
				// The ack arrived: this commit must survive the failover.
				// An ErrCommitUnknown marker stays out of the set — its
				// outcome is legitimately unknown.
				ackedMu.Lock()
				acked = append(acked, key)
				ackedMu.Unlock()
			}
		}
	}()

	ackedLen := func() int {
		ackedMu.Lock()
		defer ackedMu.Unlock()
		return len(acked)
	}
	deadline := time.After(60 * time.Second)
	for committed.Load() < 25 || ackedLen() < 10 {
		select {
		case <-deadline:
			t.Fatalf("slow pre-kill traffic: %d payments, %d markers", committed.Load(), ackedLen())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Pull the plug on the primary mid-epoch.
	preKillCommitted, preKillAcked := committed.Load(), ackedLen()
	killedAt := time.Now()
	if err := primaryCmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	primaryCmd.Wait()
	t.Logf("killed primary after %d payments, %d acked markers", preKillCommitted, preKillAcked)

	// The workers must start committing again on the promoted standby.
	deadline = time.After(60 * time.Second)
	for committed.Load() < preKillCommitted+10 || int64(ackedLen()) < int64(preKillAcked)+5 {
		select {
		case <-deadline:
			t.Fatalf("no progress after failover: %d payments (want > %d), %d markers (want > %d)",
				committed.Load(), preKillCommitted, ackedLen(), preKillAcked)
		case <-time.After(5 * time.Millisecond):
		}
	}
	failoverTime := time.Since(killedAt)
	close(stop)
	workers.Wait()
	t.Logf("failover: first post-kill progress confirmed within %v", failoverTime)
	if failoverTime > 30*time.Second {
		t.Fatalf("failover took %v", failoverTime)
	}

	// Zero acknowledged-commit loss: every marker the dead primary (or the
	// new one) acked is present.
	ackedMu.Lock()
	ackedSet := append([]string{}, acked...)
	ackedMu.Unlock()
	for _, key := range ackedSet {
		err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
			_, found, err := tx.Read(key)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("lost")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("acknowledged commit lost across failover: %s: %v", key, err)
		}
	}

	// Money conservation: whatever prefix of smallbank transactions landed,
	// the total is exactly what was loaded.
	recovered, err := smallbank.TotalFunds(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != total {
		t.Fatalf("money not conserved across failover: %d before, %d after", total, recovered)
	}
}

// TestSigtermGracefulDrain verifies the graceful-shutdown satellite end to
// end: a SIGTERM'd proxy drains — seals and commits its final epoch — and
// exits cleanly; a successor proxy over the same store serves every
// acknowledged write. The storage server then drains on SIGTERM too.
func TestSigtermGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches binaries")
	}
	storageBin, proxyBin := buildBinaries(t)
	dataDir := filepath.Join(t.TempDir(), "store")
	const seed = "drain-e2e"

	storageAddr, storageCmd := launch(t, storageBin,
		[]string{"-listen", "127.0.0.1:0", "-buckets", "4096", "-data-dir", dataDir},
		"obladi-storage: serving", extractLastField)
	proxyArgs := []string{"-storage", storageAddr, "-listen", "127.0.0.1:0",
		"-keys", "1024", "-batch-interval", "1ms", "-seed", seed}
	proxyAddr, proxyCmd := launch(t, proxyBin, proxyArgs, "clients=", extractClientsField)

	mc, err := clientproto.DialMux(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	db := clientproto.MuxDB{C: mc}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("drain-%d", i)
		if err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
			return tx.Write(key, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	mc.Close()

	if err := proxyCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proxyCmd.Wait(); err != nil {
		t.Fatalf("proxy did not exit cleanly on SIGTERM: %v", err)
	}

	proxyAddr2, _ := launch(t, proxyBin, proxyArgs, "clients=", extractClientsField)
	mc2, err := clientproto.DialMux(proxyAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	db2 := clientproto.MuxDB{C: mc2}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("drain-%d", i)
		if err := kvtxn.RunWithRetries(db2, 20, func(tx kvtxn.Txn) error {
			v, found, err := tx.Read(key)
			if err != nil {
				return err
			}
			if !found || string(v) != "v" {
				return fmt.Errorf("%s lost across graceful drain: %q %v", key, v, found)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mc2.Close()

	if err := storageCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := storageCmd.Wait(); err != nil {
		t.Fatalf("storage did not exit cleanly on SIGTERM: %v", err)
	}
}
