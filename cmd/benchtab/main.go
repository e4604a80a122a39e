// Command benchtab regenerates the paper's evaluation tables on this
// machine. Every timing is the median [Q1, Q3] of interleaved samples
// (internal/harness's Sample).
//
// Usage:
//
//	benchtab -table 1          # Table 1: analyzer efficiency
//	benchtab -table 2          # Table 2: speed ratios / config sweep
//	benchtab -table ablation   # term-depth restriction sweep
//	benchtab -table observe    # table traffic + working set per benchmark
//	benchtab -table optimize   # machine-runtime speedups from the pass pipeline
//	benchtab -table specialize # specialized transfer stream ablation
//	benchtab -table backward   # demand queries: cold vs store-warm vs one-edit
//	benchtab -table all        # everything
//	benchtab -quick            # fewer, shorter samples
//	benchtab -json out.json    # write the measured tables as JSON instead
//	benchtab -dump-wide 512    # print the wide_512 workload source and exit
//	benchtab -dump-wide 512 -seed 7  # ... with randomized family shapes
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"awam/internal/bench"
	"awam/internal/harness"
)

func main() {
	table := flag.String("table", "all", "which table to produce: 1, 2, ablation, observe, optimize, specialize, backward, all")
	quick := flag.Bool("quick", false, "take fewer, shorter timing samples")
	jsonOut := flag.String("json", "", "write the measured tables as a machine-readable report to this file instead of printing them")
	label := flag.String("label", "PR3", "revision label recorded in the -json report")
	seed := flag.Int64("seed", 0, "randomize the -dump-wide workload with this seed (0 = the fixed legacy program)")
	dumpWide := flag.Int("dump-wide", 0, "print the wide scaling workload with this many families to stdout and exit (honors -seed)")
	flag.Parse()

	if *dumpWide > 0 {
		fmt.Print(bench.WideProgramSeeded(*dumpWide, *seed).Source)
		return
	}
	if !slices.Contains(harness.Tables, *table) {
		fmt.Fprintln(os.Stderr, "benchtab: unknown table", *table)
		os.Exit(2)
	}

	fmt.Fprintln(os.Stderr, "measuring (interleaved samples of every leg)...")
	rep, err := harness.MeasureReport(*label, *table, *quick, os.Stderr)
	if err != nil {
		fail(err)
	}
	if *jsonOut == "" {
		harness.WriteReport(os.Stdout, rep)
		return
	}
	f, err := os.Create(*jsonOut)
	if err != nil {
		fail(err)
	}
	if err := harness.WriteBenchJSON(f, rep); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
