package clientproto_test

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"obladi/internal/clientproto"
	"obladi/internal/kvtxn"
)

// TestBinariesEndToEnd builds the real obladi-storage and obladi-proxy
// binaries, launches them, and drives the client protocol against the proxy
// — the deployment a remote application actually talks to. Skipped under
// -short (it compiles and execs binaries).
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches binaries")
	}
	storageBin, proxyBin := buildBinaries(t)

	storageAddr, _ := launch(t, storageBin, []string{"-listen", "127.0.0.1:0", "-buckets", "4096"},
		"obladi-storage: serving", extractLastField)
	proxyAddr, _ := launch(t, proxyBin,
		[]string{"-storage", storageAddr, "-listen", "127.0.0.1:0", "-keys", "1024", "-batch-interval", "1ms"},
		"clients=", extractClientsField)

	// Drive the mux protocol end to end.
	mc, err := clientproto.DialMux(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	db := clientproto.MuxDB{C: mc}
	if err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
		return tx.Write("e2e/key", []byte("through-the-binaries"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := kvtxn.RunWithRetries(db, 20, func(tx kvtxn.Txn) error {
		v, found, err := tx.Read("e2e/key")
		if err != nil {
			return err
		}
		if !found || string(v) != "through-the-binaries" {
			return fmt.Errorf("mux read back: %q %v", v, found)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// buildBinaries compiles the real obladi-storage and obladi-proxy binaries
// into a test temp dir.
func buildBinaries(t *testing.T) (storageBin, proxyBin string) {
	t.Helper()
	dir := t.TempDir()
	storageBin = filepath.Join(dir, "obladi-storage")
	proxyBin = filepath.Join(dir, "obladi-proxy")
	for bin, pkg := range map[string]string{
		storageBin: "obladi/cmd/obladi-storage",
		proxyBin:   "obladi/cmd/obladi-proxy",
	} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return storageBin, proxyBin
}

func extractLastField(line string) string {
	fields := strings.Fields(line)
	return fields[len(fields)-1]
}

func extractClientsField(line string) string {
	for _, f := range strings.Fields(line) {
		if strings.HasPrefix(f, "clients=") {
			return strings.TrimPrefix(f, "clients=")
		}
	}
	return ""
}

// launch starts a binary, waits for a stdout line containing marker, and
// extracts a value from it. The returned command lets crash tests SIGKILL
// the process; it is also killed at test cleanup.
func launch(t *testing.T, bin string, args []string, marker string, extract func(string) string) (string, *exec.Cmd) {
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
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatalf("%s exited before printing %q", bin, marker)
			}
			if strings.Contains(line, marker) {
				v := extract(line)
				if v == "" {
					t.Fatalf("%s: could not extract address from %q", bin, line)
				}
				return v, cmd
			}
		case <-deadline:
			t.Fatalf("%s: no %q line within 30s", bin, marker)
		}
	}
}
