package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file implements the observability layer of the analyzer: an
// opt-in Tracer callback interface (zero overhead when nil — the hot
// loop guards every callback behind a single pointer test) and an
// always-on Metrics aggregate built from per-worker counter shards.
//
// Design rules, enforced throughout internal/core:
//
//   - Counters live in a metricsShard owned by exactly one goroutine
//     (each parallel worker is a private Analyzer with its own shard);
//     shards are merged only after the worker WaitGroup barrier, so
//     metric collection is race-free without atomics in the hot loop.
//   - Only the shared step *budget* is synchronized (see refillSteps),
//     and it is touched once per reserved chunk, not per step.
//   - The finalize replay and the determinacy pass are not observable:
//     their instructions are charged to a scratch shard and their
//     events suppressed, so Metrics totals stay equal to Result.Steps
//     (the fixpoint-phase Exec statistic) under every strategy.
//   - Steps, and with it the paper's Exec column, counts only abstract
//     instructions actually executed. A naive exploration replayed from
//     the entry's record (NaiveReplayed) runs no clause and adds none;
//     the callees it presents count as they run.

// Tracer receives analysis events. Install one with Config.Tracer; a
// nil tracer costs a single pointer test per abstract instruction.
//
// Under StrategyParallel callbacks arrive concurrently from every
// worker goroutine; implementations must be safe for concurrent use.
type Tracer interface {
	// Instr fires before each abstract instruction, with the predicate
	// whose clause is executing.
	Instr(fn term.Functor, op wam.Op)
	// Table fires on extension-table operations (lookup hit/miss,
	// insert, success-pattern update) for the consulted predicate.
	Table(fn term.Functor, ev TableEvent)
	// Enqueue fires when a calling pattern is re-enqueued because a
	// summary it depends on grew (worklist and parallel strategies).
	Enqueue(fn term.Functor)
	// Iteration fires at the start of each naive fixpoint pass.
	Iteration(n int)
	// Worker fires at parallel worker start (start=true) and exit.
	Worker(id int, start bool)
}

// WorkerMetrics is one parallel worker's share of the run.
type WorkerMetrics struct {
	ID int
	// Steps is the number of abstract instructions this worker executed.
	Steps int64
	// Explorations is the number of table entries this worker explored.
	Explorations int64
	// QueueWait is the total time this worker spent waiting on the
	// shared work queue (lock acquisition plus idle parking).
	QueueWait time.Duration
}

// Metrics is the merged instrumentation of one analysis run. It is
// always collected (per-worker plain counters, merged after the worker
// barrier) and describes the fixpoint phase only: the deterministic
// finalize replay is excluded, so the counter totals match Result.Steps.
type Metrics struct {
	// PredSteps is the number of abstract instructions executed inside
	// each predicate's clauses (exclusive: a callee's instructions are
	// charged to the callee).
	PredSteps map[term.Functor]int64
	// PredRuns is the number of times each predicate's entries were
	// (re-)explored — the per-predicate re-analysis count.
	PredRuns map[term.Functor]int64
	// Opcodes is the per-opcode execution histogram; its sum equals
	// Result.Steps.
	Opcodes [wam.NumOps]int64
	// FusedOps counts executed fused superinstructions (Config.Spec with
	// fusion on). Each fused execution also charged its base opcodes to
	// Opcodes — one anchor plus two unify slots, see
	// specialize.FusedKindBases — so the Opcodes sum still equals
	// Result.Steps and stays comparable across engines; FusedOps reports
	// how many of those base triples ran through a single fused word.
	FusedOps [specialize.NumFusedKinds]int64
	// Extension-table operation counts. A lookup that finds an entry is
	// a hit; a miss is immediately followed by an insert; an update is
	// a success-pattern growth.
	TableHits, TableMisses, TableInserts, TableUpdates int64
	// Enqueues counts dependency-driven re-enqueues (worklist/parallel).
	Enqueues int64
	// Hash-consing traffic (intern.go): InternHits counts pattern
	// interns resolved on the read path, InternMisses first-sight
	// insertions. InternedPatterns/InternedTerms are the interner's
	// end-of-run sizes — the distinct canonical patterns and term nodes
	// the analysis ever touched (finalize-phase discoveries included in
	// the sizes, though its hit/miss traffic is excluded like all its
	// counters).
	InternHits, InternMisses        int64
	InternedPatterns, InternedTerms int
	// Lub-cache traffic: summary merges served from the ID-keyed memo
	// versus computed by a full graph lub + widen.
	LubCacheHits, LubCacheMisses int64
	// Warm-start traffic (Config.Warm, incremental engine): WarmHits
	// counts fixpoint-phase table inserts answered by a seeded cached
	// summary (the entry was never explored); WarmMisses counts inserts
	// probed but not cached (explored normally). Both zero when no warm
	// source is installed.
	WarmHits, WarmMisses int64
	// Summary-store traffic (internal/cache), filled by the incremental
	// engine after the run: record-level hits/misses/evictions and the
	// store's resident byte size. Zero when the analysis ran without a
	// store.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheBytes                             int64
	// Remote-tier (summary fabric) traffic of this run, filled like the
	// Cache* counters: records faulted in from the fabric peer, records
	// the peer was asked for but did not hold, records pushed upstream,
	// HTTP round trips, and failed exchanges (outages, timeouts, corrupt
	// payloads — all degraded to local misses). Zero without a remote
	// tier.
	RemoteLoads, RemoteMisses, RemotePuts int64
	RemoteRoundTrips, RemoteErrors        int64
	// HeapHighWater is the largest abstract heap (in cells) any worker
	// ever held.
	HeapHighWater int
	// NaiveReplayed and NaiveExecuted count the naive fixpoint's
	// explorations replayed from the entry's last one, every callee
	// summary read unchanged (no clause runs, no Steps), and those that
	// ran the entry's clauses. Zero under the other strategies.
	NaiveReplayed, NaiveExecuted int64
	// FinalizeReplayed and FinalizeExecuted count how the finalize pass
	// presented its entries: from the fixpoint's record of the entry's
	// last exploration, or by running the entry's clauses again (always
	// so under StrategyParallel). Warm-seeded entries, presented from
	// their cached trace, count in neither. Neither counts toward Steps.
	FinalizeReplayed, FinalizeExecuted int64
	// ExecuteTime is the fixpoint-phase wall time; FinalizeTime is the
	// deterministic presentation pass's. TableTime estimates the share of
	// ExecuteTime spent in table operations; it is sampled (one timed
	// operation in tableSampleEvery), so treat it as an estimate.
	ExecuteTime, TableTime, FinalizeTime time.Duration
	// Workers holds per-worker breakdowns (StrategyParallel only).
	Workers []WorkerMetrics
}

// metricsShard is one goroutine's private counter set. The zero value
// is not ready; use newMetricsShard.
type metricsShard struct {
	predSteps map[term.Functor]int64
	predRuns  map[term.Functor]int64
	opcodes   [wam.NumOps]int64
	fusedOps  [specialize.NumFusedKinds]int64

	hits, misses, inserts, updates, enqueues int64

	internHits, internMisses int64
	lubHits, lubMisses       int64
	warmHits, warmMisses     int64

	// naiveReplayed and naiveExecuted split the naive fixpoint's
	// explorations; parallel workers never run it, so merge skips them.
	naiveReplayed, naiveExecuted int64

	tableOps  int64
	tableTime time.Duration
}

func newMetricsShard() *metricsShard {
	return &metricsShard{
		predSteps: make(map[term.Functor]int64),
		predRuns:  make(map[term.Functor]int64),
	}
}

// tableSampleEvery is the table-op sampling stride: one operation in
// every tableSampleEvery is timed and scaled up, keeping the clock off
// the common path.
const tableSampleEvery = 64

// sampleTable starts a sampled table-operation timing window.
func (m *metricsShard) sampleTable() (time.Time, bool) {
	timed := m.tableOps%tableSampleEvery == 0
	m.tableOps++
	if timed {
		return time.Now(), true
	}
	return time.Time{}, false
}

// doneTable closes a sampled timing window.
func (m *metricsShard) doneTable(t0 time.Time, timed bool) {
	if timed {
		m.tableTime += time.Since(t0) * tableSampleEvery
	}
}

// merge folds other into m (post-barrier aggregation; no locking).
func (m *metricsShard) merge(other *metricsShard) {
	for fn, n := range other.predSteps {
		m.predSteps[fn] += n
	}
	for fn, n := range other.predRuns {
		m.predRuns[fn] += n
	}
	for i := range other.opcodes {
		m.opcodes[i] += other.opcodes[i]
	}
	for i := range other.fusedOps {
		m.fusedOps[i] += other.fusedOps[i]
	}
	m.hits += other.hits
	m.misses += other.misses
	m.inserts += other.inserts
	m.updates += other.updates
	m.enqueues += other.enqueues
	m.internHits += other.internHits
	m.internMisses += other.internMisses
	m.lubHits += other.lubHits
	m.lubMisses += other.lubMisses
	m.warmHits += other.warmHits
	m.warmMisses += other.warmMisses
	m.tableOps += other.tableOps
	m.tableTime += other.tableTime
}

// attrSwitch charges the steps executed since the last attribution
// point to the current predicate and makes fn current, returning the
// previous predicate for attrRestore. Called only at exploration
// boundaries, so per-predicate accounting costs nothing per instruction.
func (a *Analyzer) attrSwitch(fn term.Functor) term.Functor {
	if d := a.Steps - a.attrStart; d > 0 {
		a.met.predSteps[a.attrFn] += d
	}
	prev := a.attrFn
	a.attrFn = fn
	a.attrStart = a.Steps
	return prev
}

// attrClose flushes the pending attribution delta (driver exit).
func (a *Analyzer) attrClose() {
	if d := a.Steps - a.attrStart; d > 0 {
		a.met.predSteps[a.attrFn] += d
	}
	a.attrStart = a.Steps
}

// noteHeap records the current heap's high-water mark before the heap is
// replaced or the driver exits (worker heaps are read directly, but the
// sequential strategies discard heaps between explorations).
func (a *Analyzer) noteHeap() {
	if a.h != nil {
		if hw := a.h.HighWater(); hw > a.heapHW {
			a.heapHW = hw
		}
	}
}

// attrRestore closes an attribution window opened by attrSwitch.
func (a *Analyzer) attrRestore(prev term.Functor) {
	if d := a.Steps - a.attrStart; d > 0 {
		a.met.predSteps[a.attrFn] += d
	}
	a.attrFn = prev
	a.attrStart = a.Steps
}

// budgetChunk is the largest step allowance a goroutine reserves at a
// time, so the shared budget is touched once per chunk rather than per
// instruction.
const budgetChunk = 4096

// stepBudget is the step budget shared by every goroutine of one
// analysis. Goroutines reserve allowances from pool and charge steps
// against them locally; held is the sum of the reservations not yet
// used up or refunded. The budget is exhausted only when both are zero:
// then every step of it has actually been charged. A goroutine that
// finds the pool empty while others still hold allowance waits for
// them to charge it (and find the budget exhausted too) or refund it.
type stepBudget struct {
	mu    sync.Mutex
	freed sync.Cond // broadcast when held shrinks
	pool  int64
	held  int64
	// share caps one reservation at a fair slice of the budget, so a
	// small budget is not reserved whole by the first worker.
	share int64
}

func newStepBudget(max int64) *stepBudget {
	b := &stepBudget{}
	b.freed.L = &b.mu
	b.reset(max, 1)
	return b
}

// reset refills the budget to max steps for an analysis run by workers
// goroutines.
func (b *stepBudget) reset(max int64, workers int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pool, b.held = max, 0
	b.share = max / int64(workers)
	if b.share > budgetChunk {
		b.share = budgetChunk
	}
	if b.share < 1 {
		b.share = 1
	}
}

// refillSteps reserves the next allowance, reporting false once every
// step of the budget has been charged. The previous allowance is used
// up when this is called (allow reached zero), so its reservation is
// released first.
func (a *Analyzer) refillSteps() bool {
	b := a.budget
	b.mu.Lock()
	defer b.mu.Unlock()
	if a.reserved > 0 {
		b.held -= a.reserved
		a.reserved = 0
		b.freed.Broadcast()
	}
	for b.pool == 0 {
		if b.held == 0 {
			return false
		}
		b.freed.Wait()
	}
	take := min(b.pool, b.share)
	b.pool -= take
	b.held += take
	a.reserved, a.allow = take, take
	return true
}

// refundSteps returns unused allowance to the shared budget. A parallel
// worker calls it before it parks on the queue or stops, so an idle or
// finished worker never starves the others of budget.
func (a *Analyzer) refundSteps() {
	if a.reserved == 0 {
		return
	}
	b := a.budget
	b.mu.Lock()
	b.pool += a.allow
	b.held -= a.reserved
	b.freed.Broadcast()
	b.mu.Unlock()
	a.reserved, a.allow = 0, 0
}

// buildMetrics assembles the public Metrics from the driver's shard,
// already merged with any worker shards, plus per-worker breakdowns.
func (a *Analyzer) buildMetrics(workers []*Analyzer, execute, finalize time.Duration) *Metrics {
	m := &Metrics{
		PredSteps:      a.met.predSteps,
		PredRuns:       a.met.predRuns,
		Opcodes:        a.met.opcodes,
		TableHits:      a.met.hits,
		TableMisses:    a.met.misses,
		TableInserts:   a.met.inserts,
		TableUpdates:   a.met.updates,
		Enqueues:       a.met.enqueues,
		InternHits:     a.met.internHits,
		InternMisses:   a.met.internMisses,
		LubCacheHits:   a.met.lubHits,
		LubCacheMisses: a.met.lubMisses,
		WarmHits:       a.met.warmHits,
		WarmMisses:     a.met.warmMisses,
		NaiveReplayed:  a.met.naiveReplayed,
		NaiveExecuted:  a.met.naiveExecuted,
		ExecuteTime:    execute,
		TableTime:      a.met.tableTime,
		FinalizeTime:   finalize,
	}
	m.FusedOps = a.met.fusedOps
	m.InternedPatterns, m.InternedTerms = a.in.Size()
	m.HeapHighWater = a.heapHW
	for i, w := range workers {
		if hw := w.h.HighWater(); hw > m.HeapHighWater {
			m.HeapHighWater = hw
		}
		m.Workers = append(m.Workers, WorkerMetrics{
			ID:           i,
			Steps:        w.Steps,
			Explorations: int64(w.Iterations),
			QueueWait:    w.queueWait,
		})
	}
	return m
}

// Render formats the metrics as the `awam analyze -metrics` report.
func (m *Metrics) Render(tab *term.Tab) string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase    execute=%v table~%v finalize=%v\n",
		m.ExecuteTime.Round(time.Microsecond), m.TableTime.Round(time.Microsecond),
		m.FinalizeTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "naive    replayed=%d executed=%d\n", m.NaiveReplayed, m.NaiveExecuted)
	fmt.Fprintf(&b, "finalize replayed=%d executed=%d\n", m.FinalizeReplayed, m.FinalizeExecuted)
	fmt.Fprintf(&b, "table    hits=%d misses=%d inserts=%d updates=%d enqueues=%d\n",
		m.TableHits, m.TableMisses, m.TableInserts, m.TableUpdates, m.Enqueues)
	fmt.Fprintf(&b, "intern   hits=%d misses=%d patterns=%d terms=%d\n",
		m.InternHits, m.InternMisses, m.InternedPatterns, m.InternedTerms)
	fmt.Fprintf(&b, "lubcache hits=%d misses=%d\n", m.LubCacheHits, m.LubCacheMisses)
	if m.WarmHits > 0 || m.WarmMisses > 0 || m.CacheHits > 0 || m.CacheMisses > 0 {
		fmt.Fprintf(&b, "warm     hits=%d misses=%d\n", m.WarmHits, m.WarmMisses)
		fmt.Fprintf(&b, "store    hits=%d misses=%d evictions=%d bytes=%d\n",
			m.CacheHits, m.CacheMisses, m.CacheEvictions, m.CacheBytes)
	}
	if m.RemoteRoundTrips > 0 {
		fmt.Fprintf(&b, "remote   loads=%d misses=%d puts=%d round-trips=%d errors=%d\n",
			m.RemoteLoads, m.RemoteMisses, m.RemotePuts, m.RemoteRoundTrips, m.RemoteErrors)
	}
	fmt.Fprintf(&b, "heap     high-water=%d cells\n", m.HeapHighWater)
	for _, w := range m.Workers {
		fmt.Fprintf(&b, "worker   #%d steps=%d explorations=%d queue-wait=%v\n",
			w.ID, w.Steps, w.Explorations, w.QueueWait.Round(time.Microsecond))
	}
	b.WriteString("predicate steps/runs:\n")
	fns := make([]term.Functor, 0, len(m.PredSteps))
	for fn := range m.PredSteps {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if m.PredSteps[fns[i]] != m.PredSteps[fns[j]] {
			return m.PredSteps[fns[i]] > m.PredSteps[fns[j]]
		}
		return tab.FuncString(fns[i]) < tab.FuncString(fns[j])
	})
	for _, fn := range fns {
		fmt.Fprintf(&b, "  %-24s %10d %6d\n", tab.FuncString(fn), m.PredSteps[fn], m.PredRuns[fn])
	}
	b.WriteString("opcode histogram:\n")
	type oc struct {
		op wam.Op
		n  int64
	}
	var ops []oc
	for op, n := range m.Opcodes {
		if n > 0 {
			ops = append(ops, oc{wam.Op(op), n})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].n != ops[j].n {
			return ops[i].n > ops[j].n
		}
		return ops[i].op < ops[j].op
	})
	for _, o := range ops {
		fmt.Fprintf(&b, "  %-24s %10d\n", o.op.String(), o.n)
	}
	var fusedTotal int64
	for _, n := range m.FusedOps {
		fusedTotal += n
	}
	if fusedTotal > 0 {
		b.WriteString("fused superinstructions (base opcodes above include these):\n")
		for k, n := range m.FusedOps {
			if n > 0 {
				fmt.Fprintf(&b, "  %-24s %10d  (= %s)\n",
					specialize.FusedKindName(k), n, specialize.FusedKindBases(k))
			}
		}
	}
	return b.String()
}
