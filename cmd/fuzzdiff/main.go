// Command fuzzdiff runs long differential-fuzzing soaks against the
// analyzer: it generates seeded random Prolog programs, runs the
// concrete-vs-abstract soundness oracle (plus cross-strategy and
// metamorphic checks) on each, shrinks any counterexample, and emits
// violations as JSON for triage. A strategy-divergence violation's
// JSON carries the first diverging calling pattern and its two
// summaries (diverged_pred / diverged_pair).
//
// Usage:
//
//	fuzzdiff [-seed N] [-n COUNT] [-json FILE] [-keep-going] [-strict=false] [-meta] [-backward] [-progress N]
//
// Exit status is 1 if any violation was found. A soak of a few million
// cases is a weekend job; -n 0 runs until interrupted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"awam/internal/fuzz"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "base generator seed (case i uses seed+i)")
		n         = flag.Int64("n", 10000, "number of cases to run; 0 = run until interrupted")
		jsonPath  = flag.String("json", "", "append violations as JSON lines to this file (default stdout)")
		keepGoing = flag.Bool("keep-going", false, "continue after a violation instead of stopping")
		strict    = flag.Bool("strict", true, "require byte-identical worklist/naive results (schedule-confluence contract)")
		meta      = flag.Bool("meta", true, "also run metamorphic checks (clause reorder, predicate rename)")
		backward  = flag.Bool("backward", false, "also run the forward/backward consistency oracle (demands must admit forward success)")
		progress  = flag.Int64("progress", 1000, "print a progress line every N cases (0 = quiet)")
	)
	flag.Parse()

	out := os.Stdout
	if *jsonPath != "" {
		f, err := os.OpenFile(*jsonPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzdiff: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)

	cfg := fuzz.DefaultGenConfig()
	opt := fuzz.DefaultOptions()
	opt.StrictCross = *strict

	var total fuzz.Stats
	violations := 0
	start := time.Now()
	report := func(i int64) {
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr,
			"fuzzdiff: %d cases (%.0f/s) seed=[%d,%d] queries=%d solutions=%d skipped=%d diverged=%d violations=%d\n",
			i, float64(i)/elapsed, *seed, *seed+i-1, total.Queries, total.Solutions,
			total.Skipped, total.Diverged, violations)
	}

	var i int64
loop:
	for i = 0; *n == 0 || i < *n; i++ {
		select {
		case <-stop:
			fmt.Fprintln(os.Stderr, "fuzzdiff: interrupted")
			break loop
		default:
		}
		caseSeed := *seed + i
		c := fuzz.Generate(caseSeed, cfg)
		v, st, err := fuzz.Check(c, opt)
		total.Add(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fuzzdiff: seed %d: infrastructure error: %v\n", caseSeed, err)
			violations++
			if !*keepGoing {
				break
			}
			continue
		}
		if v == nil && *meta {
			v, err = fuzz.CheckMetamorphic(c, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fuzzdiff: seed %d: metamorphic infrastructure error: %v\n", caseSeed, err)
				violations++
				if !*keepGoing {
					break
				}
				continue
			}
		}
		if v == nil && *backward {
			var bst fuzz.Stats
			v, bst, err = fuzz.CheckBackward(c, opt)
			total.Add(bst)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fuzzdiff: seed %d: backward infrastructure error: %v\n", caseSeed, err)
				violations++
				if !*keepGoing {
					break
				}
				continue
			}
		}
		if v != nil {
			violations++
			// Shrink before reporting; fall back to the unshrunk
			// violation if minimization loses the failure (e.g. a
			// schedule-dependent divergence).
			if _, sv := fuzz.Shrink(c, opt); sv != nil {
				v = sv
			}
			if err := enc.Encode(v); err != nil {
				fmt.Fprintf(os.Stderr, "fuzzdiff: %v\n", err)
				os.Exit(2)
			}
			if !*keepGoing {
				i++
				break
			}
		}
		if *progress > 0 && (i+1)%*progress == 0 {
			report(i + 1)
		}
	}
	report(i)
	if violations > 0 {
		os.Exit(1)
	}
}
