package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file implements the observability layer of the analyzer: an
// opt-in Tracer callback interface (zero overhead when nil — the hot
// loop guards every callback behind a single pointer test) and an
// always-on Metrics aggregate built from the run's plain counters.
//
// Design rules, enforced throughout internal/core:
//
//   - Counters live in the Analyzer's counters set, written only by the
//     goroutine running the analysis, so collection needs no atomics.
//   - The finalize replay and the determinacy pass are not observable:
//     their instructions are charged to scratch counters and their
//     events suppressed, so Metrics totals stay equal to Result.Steps
//     (the fixpoint-phase Exec statistic) under every strategy.
//   - Steps, and with it the paper's Exec column, counts only abstract
//     instructions actually executed. A naive exploration replayed from
//     the entry's record (NaiveReplayed) runs no clause and adds none;
//     the callees it presents count as they run.

// Tracer receives analysis events. Install one with Config.Tracer; a
// nil tracer costs a single pointer test per abstract instruction.
// Callbacks arrive on the goroutine running the analysis.
type Tracer interface {
	// Instr fires before each abstract instruction, with the predicate
	// whose clause is executing.
	Instr(fn term.Functor, op wam.Op)
	// Table fires on extension-table operations (lookup hit/miss,
	// insert, success-pattern update) for the consulted predicate.
	Table(fn term.Functor, ev TableEvent)
	// Enqueue fires when a calling pattern is re-enqueued because a
	// summary it depends on grew (worklist strategy).
	Enqueue(fn term.Functor)
	// Iteration fires at the start of each naive fixpoint pass.
	Iteration(n int)
}

// Metrics is the instrumentation of one analysis run. It is always
// collected (plain counters) and describes the fixpoint phase only: the
// deterministic finalize replay is excluded, so the counter totals match
// Result.Steps.
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
	// Enqueues counts dependency-driven re-enqueues (worklist).
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
	// HeapHighWater is the largest abstract heap (in cells) the fixpoint
	// ever held.
	HeapHighWater int
	// NaiveReplayed and NaiveExecuted count the naive fixpoint's
	// explorations replayed from the entry's last one, every callee
	// summary read unchanged (no clause runs, no Steps), and those that
	// ran the entry's clauses. Zero under the other strategies.
	NaiveReplayed, NaiveExecuted int64
	// FinalizeReplayed and FinalizeExecuted count how the finalize pass
	// presented its entries: from the fixpoint's record of the entry's
	// last exploration, or by running the entry's clauses again.
	// Warm-seeded entries, presented from their cached trace, count in
	// neither. Neither counts toward Steps.
	FinalizeReplayed, FinalizeExecuted int64
	// ExecuteTime is the fixpoint-phase wall time; FinalizeTime is the
	// deterministic presentation pass's. TableTime estimates the share of
	// ExecuteTime spent in table operations; it is sampled (one timed
	// operation in tableSampleEvery), so treat it as an estimate.
	ExecuteTime, TableTime, FinalizeTime time.Duration
}

// counters is the run's counter set behind Metrics. The zero value is
// not ready; use newCounters.
type counters struct {
	predSteps map[term.Functor]int64
	predRuns  map[term.Functor]int64
	opcodes   [wam.NumOps]int64
	fusedOps  [specialize.NumFusedKinds]int64

	hits, misses, inserts, updates, enqueues int64

	internHits, internMisses int64
	lubHits, lubMisses       int64
	warmHits, warmMisses     int64

	// naiveReplayed and naiveExecuted split the naive fixpoint's
	// explorations.
	naiveReplayed, naiveExecuted int64

	tableOps  int64
	tableTime time.Duration
}

func newCounters() *counters {
	return &counters{
		predSteps: make(map[term.Functor]int64),
		predRuns:  make(map[term.Functor]int64),
	}
}

// tableSampleEvery is the table-op sampling stride: one operation in
// every tableSampleEvery is timed and scaled up, keeping the clock off
// the common path.
const tableSampleEvery = 64

// sampleTable starts a sampled table-operation timing window.
func (m *counters) sampleTable() (time.Time, bool) {
	timed := m.tableOps%tableSampleEvery == 0
	m.tableOps++
	if timed {
		return time.Now(), true
	}
	return time.Time{}, false
}

// doneTable closes a sampled timing window.
func (m *counters) doneTable(t0 time.Time, timed bool) {
	if timed {
		m.tableTime += time.Since(t0) * tableSampleEvery
	}
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
// replaced or the fixpoint ends (the strategies discard heaps between
// explorations).
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

// buildMetrics assembles the public Metrics from the run's counters.
func (a *Analyzer) buildMetrics(execute, finalize time.Duration) *Metrics {
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
