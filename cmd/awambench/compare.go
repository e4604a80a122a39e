package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minRuns is the fewest runs per side compare accepts.
const minRuns = 5

// compareMain implements "awambench compare BASE.json HEAD.json": for
// every workload and end-to-end metric it prints each side's median and
// quartiles and a verdict. It exits 1 if any verdict is worse, 2 if none
// is worse but some is unresolved, else 0.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("awambench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: awambench compare [-benchmark BENCHMARK.json] BASE.json HEAD.json")
		return 2
	}
	var spec benchmarkSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "awambench compare:", err)
		return 2
	}
	var base, head resultsFile
	for _, f := range []struct {
		path string
		into *resultsFile
	}{{fs.Arg(0), &base}, {fs.Arg(1), &head}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "awambench compare:", err)
			return 2
		}
		if len(f.into.Runs) < minRuns {
			fmt.Fprintf(os.Stderr, "awambench compare: %s holds %d runs, need at least %d\n", f.path, len(f.into.Runs), minRuns)
			return 2
		}
	}
	code := 0
	fmt.Printf("%-13s %-17s %-30s %-30s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "worse", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			b, h := values(base, w, m.Name), values(head, w, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, worse := verdict(b, h, m.Better == "lower", m.Bound)
			bq1, bq3 := quartiles(b)
			hq1, hq3 := quartiles(h)
			fmt.Printf("%-13s %-17s %-30s %-30s %+7.1f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(b), bq1, bq3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(h), hq1, hq3, m.Unit), 100*worse, v)
			switch {
			case v == "worse":
				code = 1
			case v == "unresolved" && code == 0:
				code = 2
			}
		}
	}
	return code
}

// values collects one metric of one workload across a file's runs.
func values(f resultsFile, workload, name string) []float64 {
	var out []float64
	for _, set := range f.Runs {
		if r := set.Workloads[workload]; r != nil {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges head against base for one metric. worse is the
// relative change of the medians, positive when head is worse. The
// spread of a side is its interquartile range over the base median.
//
//   - unresolved: a side's spread exceeds the bound, unless every head
//     run beats every base run (then better);
//   - worse: head's median is worse than base's by more than the bound;
//   - better: head improves by more than base's own spread and wins at
//     least nine tenths of the pairs (runs matched in order, ties
//     counting for neither);
//   - same: otherwise.
func verdict(base, head []float64, lowerBetter bool, bound float64) (string, float64) {
	mb, mh := median(base), median(head)
	if mb == 0 {
		return "unresolved", 0
	}
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	worse := sign * (mh - mb) / mb
	better := func(h, b float64) bool { return sign*(h-b) < 0 }
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	baseSpread := (bq3 - bq1) / mb
	spread := max(baseSpread, (hq3-hq1)/mb)

	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	switch {
	case allBetter:
		return "better", worse
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case -worse > baseSpread && 10*wins >= 9*pairs:
		return "better", worse
	}
	return "same", worse
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
