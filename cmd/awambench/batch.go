package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"awam"
	"awam/internal/bench"
	"awam/internal/cache"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// batchWorkload is a closed loop of one client calling the library: each
// op returns its output text, whose digest the runner checks against
// want(i).
// op goes through the facade, exactly as a user would; replay makes the
// same computation through the layers' own entry points, in the order
// the facade makes them, recording a span around each call.
type batchWorkload interface {
	// prepare makes the inputs from the seed, computes the reference
	// outputs with the generic engine and no store, and proves the
	// workload's edits neutral. It runs once per run and is not set-up.
	prepare(seed int64) error
	// setup builds the warm state the ops run against; the runner
	// repeats it and reports its median as setup_s. traced also primes
	// the state replay uses.
	setup(traced bool) error
	op(i int) (out string, err error)
	replay(i int, rec *recorder) (out string, err error)
	want(i int) string
	// tracedOps is the fixed op count of a traced run, half of them
	// replayed.
	tracedOps() int
}

// loadRef analyzes src with the generic engine (no specialized streams)
// and no store; its Marshal is the reference output.
func loadRef(src string, opts ...awam.AnalyzeOption) (string, error) {
	return facadeOp(src, append(opts, awam.WithSpecializedTransfer(false))...)
}

// facadeOp is Load + Analyze + Marshal through the public API.
func facadeOp(src string, opts ...awam.AnalyzeOption) (string, error) {
	sys, err := awam.Load(src)
	if err != nil {
		return "", err
	}
	a, err := sys.Analyze(opts...)
	if err != nil {
		return "", err
	}
	return a.Marshal(), nil
}

// replayOp is facadeOp made through the layers: parser.ParseProgram,
// compiler.Compile, inc.Condense + specialize.Build (as the facade's
// specProgram does), then core.NewWith(...).AnalyzeAllContext — or, with
// a store, inc.NewEngine(store).AnalyzeAll — and Result.Marshal. Every
// call is a child span of one "op" span.
func replayOp(rec *recorder, op int, src string, strategy core.Strategy, ts *timedStore) (string, error) {
	root := rec.id()
	t0 := time.Now()
	out, err := replayLayers(rec, op, root, src, strategy, ts)
	rec.add(span{ID: root, Op: op, Name: "op"}, t0, time.Now())
	return out, err
}

func replayLayers(rec *recorder, op, root int, src string, strategy core.Strategy, ts *timedStore) (string, error) {
	tab := term.NewTab()
	var (
		prog *term.Program
		mod  *wam.Module
		err  error
	)
	rec.time(op, root, 0, "parser.parse", func() { prog, err = parser.ParseProgram(tab, src) })
	if err != nil {
		return "", err
	}
	rec.time(op, root, 0, "compiler.compile", func() { mod, err = compiler.Compile(tab, prog) })
	if err != nil {
		return "", err
	}
	rec.count(op, "compiler.code_size", float64(mod.Size()))

	var plan *inc.Plan
	rec.time(op, root, 0, "inc.condense", func() { plan = inc.Condense(mod, core.Config{}) })
	rec.count(op, "inc.sccs", float64(len(plan.SCCs)))
	var spec *specialize.Program
	rec.time(op, root, 0, "specialize.build", func() {
		comps := make([][]term.Functor, len(plan.SCCs))
		for i, scc := range plan.SCCs {
			comps[i] = scc.Members
		}
		spec = specialize.Build(mod, comps, specialize.StaticProfile(mod),
			specialize.Options{Fuse: true, PreIntern: true})
	})

	cfg := core.DefaultConfig()
	cfg.Spec = spec
	cfg.Strategy = strategy
	var res *core.Result
	if ts == nil {
		id := rec.time(op, root, 0, "core.analyze", func() {
			res, err = core.NewWith(mod, cfg).AnalyzeAllContext(context.Background())
		})
		if err != nil {
			return "", err
		}
		rec.derive(op, id, []phase{{"core.execute", res.Metrics.ExecuteTime}, {"core.finalize", res.Metrics.FinalizeTime}})
	} else {
		ts.reset()
		var ir *inc.Result
		id := rec.time(op, root, 0, "inc.analyze", func() {
			ir, err = inc.NewEngine(ts).AnalyzeAll(context.Background(), mod, cfg)
		})
		if err != nil {
			return "", err
		}
		res = ir.Result
		m := res.Metrics
		rec.derive(op, id, []phase{
			{"cache.prefetch", ts.prefetch}, {"cache.get", ts.get},
			{"core.execute", m.ExecuteTime}, {"core.finalize", m.FinalizeTime},
			{"cache.put", ts.put}, {"cache.flush", ts.flush},
		})
		rec.count(op, "cache.gets", float64(ts.gets))
		rec.ratio(op, "cache.hit_ratio", ts.hits, ts.gets-ts.hits)
		rec.count(op, "cache.puts", float64(ts.puts))
		rec.count(op, "cache.put_bytes", float64(ts.putBytes))
		rec.count(op, "cache.evictions", float64(m.CacheEvictions))
		rec.count(op, "inc.warm_sccs", float64(ir.WarmSCCs))
		rec.ratio(op, "inc.warm_ratio", int64(ir.WarmSCCs), int64(len(ir.Plan.SCCs)-ir.WarmSCCs))
	}
	countCore(rec, op, res.Steps, res.Metrics)

	var out string
	rec.time(op, root, 0, "core.marshal", func() { out = res.Marshal() })
	return out, nil
}

// countCore records the fixpoint's own counters for one op.
func countCore(rec *recorder, op int, steps int64, m *core.Metrics) {
	rec.count(op, "core.steps", float64(steps))
	rec.count(op, "core.table_ms_est", float64(m.TableTime)/1e6)
	rec.peak(op, "core.heap_cells_peak", float64(m.HeapHighWater))
	rec.ratio(op, "core.table_hit_ratio", m.TableHits, m.TableMisses)
	rec.ratio(op, "core.intern_hit_ratio", m.InternHits, m.InternMisses)
	rec.ratio(op, "core.lubcache_hit_ratio", m.LubCacheHits, m.LubCacheMisses)
	rec.ratio(op, "core.warm_hit_ratio", m.WarmHits, m.WarmMisses)
}

// table1 is the table1_batch workload: one op analyzes the paper's
// Table 1 programs table1Passes times over, each pass in a seeded order,
// with default options (naive fixpoint, specialized transfer) and no
// store.
type table1 struct {
	seed int64
	refs []string             // each program's reference Marshal
	rows map[string][]float64 // each program's facade time, ms
}

// table1Passes is the number of suite passes in one op. A pass takes
// about 4 ms and allocates about as much as the collector's minimum heap
// goal, so with one pass per op about one collection falls in each op,
// and p90 moves between runs with where the collections land. Five
// passes put several collections in every op.
const table1Passes = 5

// order is op i's program order: table1Passes seeded permutations.
func (w *table1) order(i int) []int {
	r := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	var out []int
	for p := 0; p < table1Passes; p++ {
		out = append(out, r.Perm(len(bench.Programs))...)
	}
	return out
}

func (w *table1) prepare(seed int64) error {
	w.seed = seed
	w.refs = make([]string, len(bench.Programs))
	w.rows = make(map[string][]float64)
	for i, p := range bench.Programs {
		out, err := loadRef(p.Source)
		if err != nil {
			return fmt.Errorf("%s reference: %w", p.Name, err)
		}
		w.refs[i] = out
	}
	return nil
}

// setup runs every program once, so code and heap are warm before the
// first timed op.
func (w *table1) setup(bool) error {
	for _, p := range bench.Programs {
		if _, err := facadeOp(p.Source); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

func (w *table1) op(i int) (string, error) {
	var b strings.Builder
	for _, k := range w.order(i) {
		p := bench.Programs[k]
		t := time.Now()
		out, err := facadeOp(p.Source)
		w.rows[p.Name] = append(w.rows[p.Name], ms(time.Since(t)))
		if err != nil {
			return "", fmt.Errorf("%s: %w", p.Name, err)
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

func (w *table1) replay(i int, rec *recorder) (string, error) {
	root := rec.id()
	t0 := time.Now()
	defer func() { rec.add(span{ID: root, Op: i, Name: "op"}, t0, time.Now()) }()
	var b strings.Builder
	for _, k := range w.order(i) {
		p := bench.Programs[k]
		out, err := replayLayers(rec, i, root, p.Source, core.StrategyNaive, nil)
		if err != nil {
			return "", fmt.Errorf("%s: %w", p.Name, err)
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

func (w *table1) want(i int) string {
	var b strings.Builder
	for _, k := range w.order(i) {
		b.WriteString(w.refs[k])
	}
	return digest(b.String())
}

func (w *table1) tracedOps() int { return 20 }

// wideCold is the wide_cold workload: the seeded wide_512 program under
// the worklist fixpoint, no store.
type wideCold struct {
	src, ref string
}

func (w *wideCold) prepare(seed int64) error {
	w.src = bench.WideProgramSeeded(512, seed).Source
	out, err := loadRef(w.src, awam.WithStrategy(awam.Worklist))
	w.ref = digest(out)
	return err
}

func (w *wideCold) setup(bool) error {
	_, err := w.op(0)
	return err
}

func (w *wideCold) op(int) (string, error) {
	return facadeOp(w.src, awam.WithStrategy(awam.Worklist))
}

func (w *wideCold) replay(i int, rec *recorder) (string, error) {
	return replayOp(rec, i, w.src, core.StrategyWorklist, nil)
}

func (w *wideCold) want(int) string { return w.ref }
func (w *wideCold) tracedOps() int  { return 30 }

// editWarm is the edit_warm workload: one store primed with the base
// wide_512, then each op analyzes the base plus one distinct neutral
// clause through the store.
type editWarm struct {
	base, ref string
	seed      int64
	store     awam.Store  // the facade ops' store
	raw       *timedStore // the replayed ops' store, primed the same way
}

// edit is op i's neutral clause: one more fact for a family's p<f>_use/1,
// whose calling pattern is a list, so an atom head never matches it.
func (w *editWarm) edit(i int) string {
	r := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	return fmt.Sprintf("p%d_use(mutant_%d).\n", r.Intn(512), i)
}

func (w *editWarm) prepare(seed int64) error {
	w.seed = seed
	w.base = bench.WideProgramSeeded(512, seed).Source
	out, err := loadRef(w.base, awam.WithStrategy(awam.Worklist))
	if err != nil {
		return err
	}
	w.ref = digest(out)
	for _, i := range []int{0, 1} {
		out, err := loadRef(w.base+w.edit(i), awam.WithStrategy(awam.Worklist))
		if err != nil {
			return err
		}
		if digest(out) != w.ref {
			return fmt.Errorf("edit %q is not neutral", w.edit(i))
		}
	}
	return nil
}

func (w *editWarm) setup(traced bool) error {
	st, err := awam.NewStore()
	if err != nil {
		return err
	}
	w.store = st
	if _, err := facadeOp(w.base, awam.WithSummaryCache(st)); err != nil {
		return err
	}
	if traced {
		st, err := cache.New()
		if err != nil {
			return err
		}
		w.raw = &timedStore{st: st}
		if _, err := replayOp(nil, 0, w.base, core.StrategyWorklist, w.raw); err != nil {
			return err
		}
	}
	return nil
}

func (w *editWarm) op(i int) (string, error) {
	return facadeOp(w.base+w.edit(i), awam.WithSummaryCache(w.store))
}

func (w *editWarm) replay(i int, rec *recorder) (string, error) {
	return replayOp(rec, i, w.base+w.edit(i), core.StrategyWorklist, w.raw)
}

func (w *editWarm) want(int) string { return w.ref }
func (w *editWarm) tracedOps() int  { return 40 }
