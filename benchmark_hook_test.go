package obladi_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds keeps the benchmark — a nested module that
// `go build ./...` and `go test ./...` never reach — behind tier-1: it is
// the only trusted measuring instrument, it compiles against internal
// packages, and nothing else would notice an API change breaking it. The
// module is vetted and built always, and its own tests run unless -short.
// Nothing under benchmark/ is touched; the binary goes to a temp dir.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool := func(args ...string) {
		t.Helper()
		cmd := exec.Command("go", args...)
		// What benchmark/run.sh sets: resolve the `replace obladi => ../`
		// module without a vendor dir, and never reach for the network.
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	goTool("vet", "-C", "benchmark", ".")
	goTool("build", "-C", "benchmark", "-o", filepath.Join(t.TempDir(), "obladi-benchmark"), ".")
	if testing.Short() {
		t.Skip("short mode: benchmark module vetted and built, its tests not run")
	}
	goTool("test", "-C", "benchmark", "-count=1", ".")
}
