package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID: the scheduler's own
// nanosecond account of the CPU this process has consumed, user and system,
// all threads. getrusage reports the same quantity at tick granularity,
// which is too coarse for a 6 ms epoch.
const clockProcessCPUTimeID = 2

// processCPU returns the process's consumed CPU time in nanoseconds.
func processCPU() int64 {
	var ts syscall.Timespec
	// The call cannot fail for this clock and a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// procWriteBytes returns /proc/self/io's wchar: bytes this process has
// passed to write-like system calls, sockets included. Zero if unreadable.
func procWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}

// hostStamp describes where a run happened; it is printed with every run.
// The commit is the one the binary was built from, when the build saw a
// version-control checkout.
func hostStamp(dataRoot string) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	// The data dir may not exist yet; its nearest existing ancestor is on
	// the same filesystem.
	fsDir := dataRoot
	for {
		if _, err := os.Stat(fsDir); err == nil || fsDir == filepath.Dir(fsDir) {
			break
		}
		fsDir = filepath.Dir(fsDir)
	}
	return fmt.Sprintf("host: commit=%s nproc=%d GOMAXPROCS=%d go=%s data-dir-fs=%s",
		commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(fsDir))
}
