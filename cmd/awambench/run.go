package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// workloads are the benchmark's workloads, in run order; BENCHMARK.json
// and README.md say why each was chosen.
var workloads = []string{"table1_batch", "wide_cold", "edit_warm", "serve_mixed"}

// reportedLayers are the per-layer metrics of a traced run's result
// line: the ones measured on every workload, with BENCHMARK.json's
// per_layer naming them in this order. The full table is in the report.
var reportedLayers = []string{
	"parser.parse_ms", "compiler.compile_ms", "compiler.code_size",
	"inc.condense_ms", "inc.sccs", "inc.warm_ratio", "specialize.build_ms",
	"core.execute_ms", "core.finalize_ms", "core.steps",
	"core.table_hit_ratio", "core.intern_hit_ratio", "core.lubcache_hit_ratio",
	"core.warm_hit_ratio", "core.heap_cells_peak",
	"cache.gets", "cache.hit_ratio",
	"backward.visited_sccs", "backward.executed_sccs", "backward.reused_ratio",
	"runtime.peak_rss_mb", "runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "runtime.gc_pause_ms_per_op",
	"trace.coverage_pct",
}

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick runs at most three ops (four requests on serve_mixed) after
	// one set-up, for the smoke test.
	quick bool
}

// report is everything one run measured. Metrics holds the end-to-end
// metrics and the workload's extra ones (sample counts, error rate,
// per-route medians); in a traced run they cover its untraced ops only.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Valid      bool              `json:"valid"`
	Invalid    string            `json:"invalid_reason,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Rows       map[string]metric `json:"rows,omitempty"`
	Layers     map[string]metric `json:"layers,omitempty"`
	// Routes splits serve_mixed's layer table by route, since the two
	// routes run different layers on programs of different sizes.
	Routes map[string]map[string]metric `json:"routes,omitempty"`
	Env    environment                  `json:"env"`
	Spans  []span                       `json:"spans,omitempty"`
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) fail(err error) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	if r.Traced {
		for _, name := range reportedLayers {
			m, ok := r.Layers[name]
			if !ok {
				m = metric{0, layerUnits[name]}
			}
			res.Metrics[name] = m
		}
		return res
	}
	for _, e := range endToEnd {
		res.Metrics[e.name] = r.Metrics[e.name]
	}
	return res
}

// runWorkload makes one run: prepare, set up (repeated), measure.
func runWorkload(o runOpts) (*report, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Metrics: make(map[string]metric), Env: captureEnv()}
	var err error
	switch o.workload {
	case "table1_batch":
		err = runBatch(r, &table1{}, o)
	case "wide_cold":
		err = runBatch(r, &wideCold{}, o)
	case "edit_warm":
		err = runBatch(r, &editWarm{}, o)
	case "serve_mixed":
		err = runServe(r, o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	r.Env.finish()
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	if r.Layers != nil {
		r.Layers["runtime.peak_rss_mb"] = r.Metrics["peak_rss_mb"]
	}
	r.set("error_rate", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Valid = r.Invalid == ""
	return r, nil
}

// setupN runs f at least three times and for at least a second (at most
// 100 times), recording the median as setup_s, so a set-up of a few
// milliseconds is sampled as often as it takes to be steady; the state
// of the last run is the one measured.
func setupN(r *report, o runOpts, f func() error) error {
	var s []float64
	for begin := time.Now(); len(s) < 100; {
		if o.quick && len(s) == 1 || len(s) >= 3 && time.Since(begin) >= time.Second {
			break
		}
		t := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s = append(s, time.Since(t).Seconds())
	}
	r.set("setup_s", median(s), "s")
	runtime.GC()
	return nil
}

func runBatch(r *report, w batchWorkload, o runOpts) error {
	t := time.Now()
	if err := w.prepare(o.seed); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	r.set("check_s", time.Since(t).Seconds(), "s")
	if err := setupN(r, o, func() error { return w.setup(o.trace) }); err != nil {
		return err
	}

	var rec *recorder
	limit := 0 // op count; 0 runs for o.seconds
	if o.trace {
		rec, limit = newRecorder(), w.tracedOps()
	}
	if o.quick {
		limit = 3
	}
	var plain, traced []float64
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit == 0 && i > 0 && !time.Now().Before(deadline) {
			break
		}
		replay := rec != nil && i%2 == 0
		t := time.Now()
		var out string
		var err error
		if replay {
			out, err = w.replay(i, rec)
		} else {
			out, err = w.op(i)
		}
		d := ms(time.Since(t))
		r.Attempted++
		if err == nil && digest(out) != w.want(i) {
			err = errors.New("output differs from the reference")
		}
		if err != nil {
			r.fail(err)
			continue
		}
		if replay {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem1)

	r.set("latency_p50_ms", quantile(plain, 0.5), "ms")
	r.set("latency_p90_ms", quantile(plain, 0.9), "ms")
	r.set("throughput_ops_s", float64(len(plain))/elapsed.Seconds(), "1/s")
	r.set("samples", float64(len(plain)), "count")
	if t1, ok := w.(*table1); ok {
		r.Rows = make(map[string]metric)
		for name, xs := range t1.rows {
			r.Rows[name] = metric{median(xs), "ms"}
		}
	}
	if rec != nil {
		r.Layers = layerTable(rec.opLayers(), quantile(traced, 0.5)-quantile(plain, 0.5), &mem0, &mem1, r.Attempted)
		r.Spans = rec.spans
	}
	return nil
}

func runServe(r *report, o runOpts) error {
	w := &serveMixed{}
	defer w.teardown()
	window := time.Duration(o.seconds * float64(time.Second))
	n := requests(window)
	switch {
	case o.quick:
		n, window = 4, time.Second
	case o.trace:
		n = serveTracedOps
		window = time.Duration(float64(n) / serveRate * float64(time.Second))
	}
	t := time.Now()
	if err := w.prepare(o.seed, n, window); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	r.set("check_s", time.Since(t).Seconds(), "s")
	if err := setupN(r, o, func() error { return w.setup(o.trace) }); err != nil {
		return err
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
		w.hook.rec = rec
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	outs, elapsed := w.run(rec)
	runtime.ReadMemStats(&mem1)

	var plain []outcome
	var tracedLat, plainLat [2][]float64 // by kind: analyze, backward
	for i, oc := range outs {
		if oc.traced && oc.err == nil {
			w.probe(rec, i)
		}
		if !oc.traced {
			plain = append(plain, oc)
		}
		if oc.err != nil {
			continue
		}
		k := 0
		if oc.backward {
			k = 1
		}
		if oc.traced {
			tracedLat[k] = append(tracedLat[k], ms(oc.latency))
		} else {
			plainLat[k] = append(plainLat[k], ms(oc.latency))
		}
	}
	for name, v := range serveMetrics(plain, elapsed) {
		unit := "ms"
		switch name {
		case "throughput_ops_s":
			unit = "1/s"
		case "samples", "analyze_samples", "backward_samples":
			unit = "count"
		}
		r.set(name, v, unit)
	}
	r.set("latency_limit_ms", ms(latencyLimit), "ms")
	r.Invalid = serveInvalid(outs)
	for _, oc := range outs {
		r.Attempted++
		if oc.err != nil {
			r.fail(oc.err)
		}
	}
	if rec != nil {
		overhead := 0.0
		for k := range tracedLat {
			overhead += (quantile(tracedLat[k], 0.5) - quantile(plainLat[k], 0.5)) / 2
		}
		perOp := rec.opLayers()
		r.Layers = layerTable(perOp, overhead, &mem0, &mem1, r.Attempted)
		r.Routes = map[string]map[string]metric{
			"analyze":  medians(perOp, func(op int) bool { return !w.sched[op].backward }),
			"backward": medians(perOp, func(op int) bool { return w.sched[op].backward }),
		}
		r.Spans = rec.spans
	}
	return nil
}

// layerTable is the per-layer table of a traced run: the median over
// traced ops of each layer metric, the lowest coverage of any op, the
// tracing overhead (traced minus untraced p50) and the run's runtime
// costs per op.
func layerTable(perOp map[int]map[string]float64, overhead float64, mem0, mem1 *runtime.MemStats, ops int) map[string]metric {
	out := medians(perOp, nil)
	minCov := 100.0
	for _, m := range perOp {
		if c, ok := m["trace.coverage_pct"]; ok {
			minCov = min(minCov, c)
		}
	}
	n := float64(max(ops, 1))
	out["trace.coverage_min_pct"] = metric{minCov, "%"}
	out["trace.overhead_ms"] = metric{overhead, "ms"}
	out["runtime.alloc_mb_per_op"] = metric{float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / n, "MB"}
	out["runtime.gc_cycles_per_op"] = metric{float64(mem1.NumGC-mem0.NumGC) / n, "count"}
	out["runtime.gc_pause_ms_per_op"] = metric{float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6 / n, "ms"}
	return out
}

// medians is the median over ops of each layer metric, counting only
// the ops keep accepts (all, when keep is nil).
func medians(perOp map[int]map[string]float64, keep func(op int) bool) map[string]metric {
	vals := make(map[string][]float64)
	for op, m := range perOp {
		if keep != nil && !keep(op) {
			continue
		}
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]metric)
	for k, vs := range vals {
		out[k] = metric{median(vs), layerUnits[k]}
	}
	return out
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// jsonDigest digests v's JSON encoding; maps encode with sorted keys, so
// equal maps digest equally.
func jsonDigest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digest(string(b))
}

// print writes the report for a reader, then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %t\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "  attempted %d failed %d correct %t valid %t\n", r.Attempted, r.Failed, r.Correct, r.Valid)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	if r.Invalid != "" {
		fmt.Fprintf(w, "  invalid: %s\n", r.Invalid)
	}
	printTable(w, "", r.Metrics)
	printTable(w, "row ", r.Rows)
	printTable(w, "layer ", r.Layers)
	for _, route := range []string{"analyze", "backward"} {
		printTable(w, "route "+route+" ", r.Routes[route])
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printTable(w io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %s%-28s %14.4f %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}
