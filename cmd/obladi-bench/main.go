// Command obladi-bench regenerates the tables and figures of the paper's
// evaluation (§11). Each experiment prints the same series the paper plots;
// shapes (ratios, crossovers) should reproduce, absolute numbers depend on
// the host and the latency scale.
//
// Usage:
//
//	obladi-bench -list
//	obladi-bench -experiment fig10a [-quick] [-latency-scale 0.25]
//	obladi-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"obladi/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	experiment := flag.String("experiment", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "CI-scale data sizes and run lengths")
	scale := flag.Float64("latency-scale", 0, "storage latency scale factor (0 = default)")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	if *list {
		for _, name := range bench.Names() {
			fmt.Printf("%-10s %s\n", name, bench.Describe(name))
		}
		return
	}
	cfg := bench.Config{Quick: *quick, LatencyScale: *scale, Seed: *seed}

	names := bench.Names()
	if *experiment != "all" {
		names = []string{*experiment}
	}
	for _, name := range names {
		fmt.Printf("== %s: %s\n", name, bench.Describe(name))
		start := time.Now()
		rows, err := bench.Run(name, cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := bench.Print(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
