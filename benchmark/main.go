// Command benchmark is the repository's performance benchmark: four
// epoch-stepped workloads over the Obladi proxy, end-to-end metrics from a
// timed pass, per-layer metrics from a traced pass, and a correctness oracle
// in the same command. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: kv-mem, kv-contend, bank-disk or kv-wire")
		seed         = flag.Uint64("seed", 1, "seed of the generated load and of the ORAM's choices")
		seconds      = flag.Float64("seconds", 18, "length of the measured pass on the reference host; it fixes the epoch count")
		trace        = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: timed and traced passes, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1, write the spans here as JSON lines")
		dataDir      = flag.String("data-dir", "", "where disk workloads keep their files (default .bench_build/data)")
		aa           = flag.Int("aa", 0, "run N full sets of every workload and compare them against the bounds")
		quick        = flag.Bool("quick", false, "a two-second smoke run: one set-up, short warm-up, few blocks")
	)
	flag.Parse()
	dataRoot, err := dataRootFor(*dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	base := options{seed: *seed, seconds: *seconds, warmup: warmupEpochs, setups: setupRepeats, trace: *trace != 0,
		traceOut: *traceOut, dataRoot: dataRoot, log: os.Stderr}
	if *quick {
		base.seconds, base.warmup, base.setups = 2, blockEpochs, 1
	}
	fmt.Fprintln(os.Stderr, hostStamp(dataRoot))
	if *aa > 0 {
		return runAA(base, *aa)
	}
	if base.w, err = workloadByName(*workloadName); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res, err := base.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
