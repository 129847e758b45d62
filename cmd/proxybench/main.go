// Proxybench runs the reproduction suite E1–E18 (see EXPERIMENTS.md) and
// prints each experiment's table or series.
//
// Usage:
//
//	proxybench [-only E2,E5] [-latency 500us] [-ops 400] [-seed 1]
//
// Absolute numbers depend on the host; the *shapes* (who wins, where
// crossovers fall) are what the suite reproduces. Performance claims come
// from the repository benchmark (benchmark/, BENCHMARK.json), not from
// this runner.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	latency := flag.Duration("latency", 500*time.Microsecond, "one-way simulated link latency")
	ops := flag.Int("ops", 400, "operations per measurement")
	seed := flag.Int64("seed", 1, "workload and network seed")
	flag.Parse()

	cfg := experiments.Config{Latency: *latency, Ops: *ops, Seed: *seed}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	fmt.Printf("proxybench: link latency %v, %d ops, seed %d\n", cfg.Latency, cfg.Ops, cfg.Seed)
	start := time.Now()
	ran := 0
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := e.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -only=%s\n", *only)
		os.Exit(2)
	}
	fmt.Printf("\n%d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
}
