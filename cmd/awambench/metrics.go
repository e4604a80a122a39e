package main

import (
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics every workload reports with tracing off, in
// print order; BENCHMARK.json gives each its direction and bound.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"setup_s", "s"},
}

// layerUnits lists every per-layer metric of the traced run with its
// unit. A layer that does not run on a workload is absent from that
// workload's table.
var layerUnits = map[string]string{
	"parser.parse_ms":            "ms",
	"compiler.compile_ms":        "ms",
	"compiler.code_size":         "count",
	"specialize.build_ms":        "ms",
	"inc.condense_ms":            "ms",
	"inc.analyze_ms":             "ms",
	"inc.analyze_self_ms":        "ms",
	"inc.sccs":                   "count",
	"inc.warm_sccs":              "count",
	"inc.warm_ratio":             "ratio",
	"cache.get_ms":               "ms",
	"cache.gets":                 "count",
	"cache.hit_ratio":            "ratio",
	"cache.put_ms":               "ms",
	"cache.puts":                 "count",
	"cache.put_bytes":            "bytes",
	"cache.prefetch_ms":          "ms",
	"cache.flush_ms":             "ms",
	"cache.evictions":            "count",
	"core.analyze_ms":            "ms",
	"core.execute_ms":            "ms",
	"core.finalize_ms":           "ms",
	"core.table_ms_est":          "ms",
	"core.steps":                 "count",
	"core.table_hit_ratio":       "ratio",
	"core.intern_hit_ratio":      "ratio",
	"core.lubcache_hit_ratio":    "ratio",
	"core.warm_hit_ratio":        "ratio",
	"core.heap_cells_peak":       "cells",
	"core.marshal_ms":            "ms",
	"backward.analyze_ms":        "ms",
	"backward.condense_ms":       "ms",
	"backward.forward_ms":        "ms",
	"backward.solve_ms":          "ms",
	"backward.visited_sccs":      "count",
	"backward.executed_sccs":     "count",
	"backward.reused_ratio":      "ratio",
	"awam.load_ms":               "ms",
	"awam.analyze_ms":            "ms",
	"awam.summaries_ms":          "ms",
	"awam.marshal_ms":            "ms",
	"serve.request_ms":           "ms",
	"serve.hook_ms":              "ms",
	"serve.self_ms":              "ms",
	"serve.wait_ms":              "ms",
	"runtime.peak_rss_mb":        "MB",
	"runtime.alloc_mb_per_op":    "MB",
	"runtime.gc_pause_ms_per_op": "ms",
	"runtime.gc_cycles_per_op":   "count",
	"trace.op_ms":                "ms",
	"trace.unattributed_ms":      "ms",
	"trace.coverage_pct":         "%",
	"trace.coverage_min_pct":     "%",
	"trace.overhead_ms":          "ms",
}

// quantile is the linearly interpolated q-quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss,
// which Linux reports in kilobytes and keeps equal to VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// environment is the machine state recorded with every results file.
type environment struct {
	Nproc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitHead     string  `json:"git_head"`
	CPUModel    string  `json:"cpu_model"`
	LoadBefore  float64 `json:"load1_before"`
	LoadAfter   float64 `json:"load1_after"`
	Noisy       bool    `json:"noisy"`
	NoisyReason string  `json:"noisy_reason,omitempty"`
}

// captureEnv records the CPU count, GOMAXPROCS, Go version and load
// average; a single run stops there, while a set of runs adds the git
// revision and CPU model with describeMachine.
func captureEnv() environment {
	return environment{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitHead:    "unknown",
		CPUModel:   "unknown",
		LoadBefore: load1(),
	}
}

// describeMachine adds the git revision of the working directory and the
// CPU model.
func (e *environment) describeMachine() {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitHead = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
}

// finish records the load average after the run and marks the run noisy
// when either reading exceeds the CPU count.
func (e *environment) finish() {
	e.LoadAfter = load1()
	if e.LoadBefore > float64(e.Nproc) || e.LoadAfter > float64(e.Nproc) {
		e.Noisy = true
		e.NoisyReason = "1-minute load average above nproc"
	}
}

// load1 is the 1-minute load average.
func load1() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return -1
	}
	return float64(si.Loads[0]) / (1 << 16)
}
