// Command awambench is the benchmark of the abstract-WAM analyzer: one
// seeded command that measures the batch analyzer, its incremental path
// and the awamd daemon end to end, and in a separate traced run
// attributes each op's time to the layers it calls.
//
// One workload, one run (the last stdout line is a JSON result):
//
//	awambench -workload wide_cold -seed 1 -seconds 25 -trace 0
//
// Every workload, each in its own child process, writing
// DIR/results.json (and, with -trace 1, a traced run per workload,
// DIR/trace.json and the per-layer table):
//
//	awambench -seed 1 -out DIR [-trace 1] [-runs N]
//
// Two sets of runs against each other:
//
//	awambench compare BASE.json HEAD.json
//
// See README.md for the workloads, metrics and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("awambench", flag.ExitOnError)
	workload := fs.String("workload", "", "run this workload only (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of program generation, order, edits, goals and arrivals")
	seconds := fs.Float64("seconds", 25, "measured seconds per untraced run")
	trace := fs.Int("trace", 0, "1: traced run with a fixed op count, reporting per-layer metrics")
	out := fs.String("out", "awambench-out", "directory for results.json and trace.json (every-workload mode)")
	runs := fs.Int("runs", 1, "sets of runs to make (every-workload mode)")
	reportPath := fs.String("report", "", "also write the run's full report as JSON to this file")
	quick := fs.Bool("quick", false, "at most three ops per workload after one set-up (smoke test)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *workload == "" {
		if err := runAll(*seed, *seconds, *trace == 1, *quick, *runs, *out); err != nil {
			fmt.Fprintln(os.Stderr, "awambench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick})
	if err != nil {
		fmt.Fprintln(os.Stderr, "awambench:", err)
		os.Exit(1)
	}
	if *reportPath != "" {
		if err := writeJSON(*reportPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "awambench:", err)
			os.Exit(1)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "awambench:", err)
		os.Exit(1)
	}
}

// resultsFile is results.json: one entry per set of runs.
type resultsFile struct {
	Runs []setOfRuns `json:"runs"`
}

type setOfRuns struct {
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Workloads map[string]*report `json:"workloads"`
	Traced    map[string]*report `json:"traced,omitempty"`
}

// runAll runs every workload in its own child process, runs times, and
// writes results.json (and trace.json for the last traced set).
func runAll(seed int64, seconds float64, traced, quick bool, runs int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var res resultsFile
	spans := make(map[string][]span)
	for k := 0; k < runs; k++ {
		set := setOfRuns{Env: captureEnv(), Seed: seed, Workloads: make(map[string]*report)}
		set.Env.describeMachine()
		for _, w := range workloads {
			rep, err := child(w, seed, seconds, false, quick, dir)
			if err != nil {
				return err
			}
			set.Workloads[w] = rep
			printEndToEnd(rep)
		}
		if traced {
			set.Traced = make(map[string]*report)
			for _, w := range workloads {
				rep, err := child(w, seed, seconds, true, quick, dir)
				if err != nil {
					return err
				}
				spans[w], rep.Spans = rep.Spans, nil
				set.Traced[w] = rep
				untraced := set.Workloads[w].Metrics["latency_p50_ms"].Value
				fmt.Printf("%s traced: coverage min %.1f%%, overhead %.3f ms (interleaved), untraced p50 %.3f ms\n",
					w, rep.Layers["trace.coverage_min_pct"].Value, rep.Layers["trace.overhead_ms"].Value, untraced)
				printTable(os.Stdout, "layer ", rep.Layers)
				for _, route := range []string{"analyze", "backward"} {
					printTable(os.Stdout, "route "+route+" ", rep.Routes[route])
				}
			}
		}
		set.Env.finish()
		res.Runs = append(res.Runs, set)
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), res); err != nil {
		return err
	}
	if traced {
		return writeChromeTrace(filepath.Join(dir, "trace.json"), spans)
	}
	return nil
}

// child runs one workload in a child process with GOMAXPROCS = nproc and
// reads back its report.
func child(workload string, seed int64, seconds float64, traced, quick bool, dir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	path := filepath.Join(dir, workload+"."+kind+".json")
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-report", path,
		"-quick=" + strconv.FormatBool(quick), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, err
	}
	return rep, os.Remove(path)
}

// printEndToEnd prints a run's end-to-end metrics by name with units.
func printEndToEnd(r *report) {
	fmt.Printf("%s: attempted %d failed %d correct %t valid %t\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Valid)
	if r.Invalid != "" {
		fmt.Printf("  invalid: %s\n", r.Invalid)
	}
	printTable(os.Stdout, "", r.Metrics)
	printTable(os.Stdout, "row ", r.Rows)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
