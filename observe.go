package awam

import (
	"sort"
	"time"

	"awam/internal/core"
	"awam/internal/term"
	"awam/internal/wam"
)

// TableEvent classifies the extension-table operations a Tracer sees.
type TableEvent int

const (
	// TableHit is a lookup that found an existing entry.
	TableHit TableEvent = iota
	// TableMiss is a lookup that found nothing.
	TableMiss
	// TableInsert is a fresh entry insertion (always follows a miss).
	TableInsert
	// TableUpdate is a success-pattern growth.
	TableUpdate
)

// String names the event for trace output.
func (ev TableEvent) String() string { return core.TableEvent(ev).String() }

// Tracer receives analysis events, installed with WithTracer. Tracing is
// for understanding a run, not for production metrics — every abstract
// instruction calls Instr, so expect an order-of-magnitude slowdown;
// with no tracer installed the instrumentation costs one pointer test
// per instruction. Callbacks arrive on the goroutine running the
// analysis.
type Tracer interface {
	// Instr fires before each abstract instruction with the predicate
	// ("name/arity") whose clause is executing and the opcode name.
	Instr(pred, opcode string)
	// Table fires on extension-table operations for the consulted
	// predicate.
	Table(pred string, ev TableEvent)
	// Enqueue fires when a calling pattern is re-enqueued because a
	// summary it depends on grew (Worklist strategy).
	Enqueue(pred string)
	// Iteration fires at the start of each Naive fixpoint pass.
	Iteration(n int)
}

// WithTracer installs a Tracer for the analysis. A nil t is a no-op.
func WithTracer(t Tracer) AnalyzeOption {
	return func(c *analyzeCfg) { c.tracer = t }
}

// coreTracer adapts the public string-oriented Tracer onto the internal
// functor/opcode interface. The symbol table is only read (names are
// interned at load time).
type coreTracer struct {
	tab *term.Tab
	t   Tracer
}

func (ct coreTracer) Instr(fn term.Functor, op wam.Op) {
	ct.t.Instr(ct.tab.FuncString(fn), op.String())
}
func (ct coreTracer) Table(fn term.Functor, ev core.TableEvent) {
	ct.t.Table(ct.tab.FuncString(fn), TableEvent(ev))
}
func (ct coreTracer) Enqueue(fn term.Functor) { ct.t.Enqueue(ct.tab.FuncString(fn)) }
func (ct coreTracer) Iteration(n int)         { ct.t.Iteration(n) }

// PredMetrics is the per-predicate share of an analysis run.
type PredMetrics struct {
	// Pred is the predicate as "name/arity".
	Pred string
	// Steps is the number of abstract instructions executed inside the
	// predicate's clauses (exclusive: callee instructions are charged to
	// the callee).
	Steps int64
	// Runs is the number of times the predicate's calling patterns were
	// (re-)explored — its re-analysis count.
	Runs int64
}

// OpMetrics is one row of the per-opcode execution histogram.
type OpMetrics struct {
	// Opcode is the abstract WAM instruction name.
	Opcode string
	// Count is the number of executions.
	Count int64
}

// Metrics is the instrumentation of one analysis run. It is always
// collected — the counters are plain increments — and covers the fixpoint phase only (the
// deterministic finalize replay is excluded), so the step totals equal
// Stats().Exec under every strategy.
type Metrics struct {
	// Predicates holds per-predicate steps and re-analysis counts,
	// sorted by Steps descending (ties by name).
	Predicates []PredMetrics
	// Opcodes is the execution histogram, sorted by Count descending;
	// the counts sum to Stats().Exec.
	Opcodes []OpMetrics
	// Extension-table operation counts. A lookup that finds an entry is
	// a hit; a miss is immediately followed by an insert; an update is a
	// success-pattern growth.
	TableHits, TableMisses, TableInserts, TableUpdates int64
	// Enqueues counts dependency-driven re-enqueues (Worklist).
	Enqueues int64
	// Hash-consing traffic: InternHits counts pattern interns resolved
	// by the interner's read path, InternMisses first-sight insertions.
	// InternedPatterns and InternedTerms are the interner's end-of-run
	// sizes — the distinct canonical patterns and abstract term nodes
	// the analysis touched.
	InternHits, InternMisses        int64
	InternedPatterns, InternedTerms int
	// Lub-cache traffic: summary merges answered from the ID-keyed memo
	// cache versus computed by a full graph lub and widen. The hit rate
	// LubCacheHits/(LubCacheHits+LubCacheMisses) is the share of merges
	// that cost a map probe instead of a tree walk.
	LubCacheHits, LubCacheMisses int64
	// HeapHighWater is the largest abstract heap (in cells) the analysis
	// ever held.
	HeapHighWater int
	// Warm-start traffic (WithSummaryCache runs; zero otherwise):
	// WarmHits counts calling patterns seeded from cached summaries
	// instead of being explored, WarmMisses probes that found no seed.
	WarmHits, WarmMisses int64
	// Summary-store traffic of this run: record probes that hit and
	// missed (one probe per program component), records evicted by the
	// memory budget, and the store's in-memory footprint afterwards.
	CacheHits, CacheMisses, CacheEvictions, CacheBytes int64
	// Remote-tier (summary fabric) traffic of this run: records faulted
	// in from the fabric peer, records the peer did not hold, records
	// pushed upstream, HTTP round trips, and failed exchanges (all
	// degraded to local misses). Zero without a remote tier.
	RemoteLoads, RemoteMisses, RemotePuts int64
	RemoteRoundTrips, RemoteErrors        int64
	// NaiveReplayed and NaiveExecuted count the naive fixpoint's
	// explorations: those replayed from the entry's last exploration
	// because every callee summary it read was unchanged, and those that
	// ran the entry's clauses. A replay executes no instruction, so it
	// adds nothing to Exec. Zero under Worklist.
	NaiveReplayed, NaiveExecuted int64
	// FinalizeReplayed and FinalizeExecuted count how the deterministic
	// presentation pass produced its entries: replayed from the
	// fixpoint's record of each entry's last exploration, or by running
	// the entry's clauses again. Entries seeded from a summary cache
	// count in neither. Not part of Exec.
	FinalizeReplayed, FinalizeExecuted int64
	// ExecuteTime is the fixpoint-phase wall time; FinalizeTime the
	// deterministic presentation pass's. TableTime estimates the share
	// of ExecuteTime spent in extension-table operations (sampled).
	ExecuteTime, TableTime, FinalizeTime time.Duration
}

// Metrics returns the run's instrumentation. The zero Metrics is
// returned for analyses loaded with LoadAnalysis (no run happened).
func (a *Analysis) Metrics() Metrics {
	cm := a.res.Metrics
	if cm == nil {
		return Metrics{}
	}
	m := Metrics{
		TableHits:        cm.TableHits,
		TableMisses:      cm.TableMisses,
		TableInserts:     cm.TableInserts,
		TableUpdates:     cm.TableUpdates,
		Enqueues:         cm.Enqueues,
		InternHits:       cm.InternHits,
		InternMisses:     cm.InternMisses,
		InternedPatterns: cm.InternedPatterns,
		InternedTerms:    cm.InternedTerms,
		LubCacheHits:     cm.LubCacheHits,
		LubCacheMisses:   cm.LubCacheMisses,
		HeapHighWater:    cm.HeapHighWater,
		WarmHits:         cm.WarmHits,
		WarmMisses:       cm.WarmMisses,
		CacheHits:        cm.CacheHits,
		CacheMisses:      cm.CacheMisses,
		CacheEvictions:   cm.CacheEvictions,
		CacheBytes:       cm.CacheBytes,
		RemoteLoads:      cm.RemoteLoads,
		RemoteMisses:     cm.RemoteMisses,
		RemotePuts:       cm.RemotePuts,
		RemoteRoundTrips: cm.RemoteRoundTrips,
		RemoteErrors:     cm.RemoteErrors,
		ExecuteTime:      cm.ExecuteTime,
		TableTime:        cm.TableTime,
		FinalizeTime:     cm.FinalizeTime,
		NaiveReplayed:    cm.NaiveReplayed,
		NaiveExecuted:    cm.NaiveExecuted,
		FinalizeReplayed: cm.FinalizeReplayed,
		FinalizeExecuted: cm.FinalizeExecuted,
	}
	for fn, steps := range cm.PredSteps {
		m.Predicates = append(m.Predicates, PredMetrics{
			Pred:  a.sys.tab.FuncString(fn),
			Steps: steps,
			Runs:  cm.PredRuns[fn],
		})
	}
	for fn, runs := range cm.PredRuns {
		if _, seen := cm.PredSteps[fn]; !seen {
			m.Predicates = append(m.Predicates, PredMetrics{
				Pred: a.sys.tab.FuncString(fn), Runs: runs,
			})
		}
	}
	sort.Slice(m.Predicates, func(i, j int) bool {
		if m.Predicates[i].Steps != m.Predicates[j].Steps {
			return m.Predicates[i].Steps > m.Predicates[j].Steps
		}
		return m.Predicates[i].Pred < m.Predicates[j].Pred
	})
	for op, n := range cm.Opcodes {
		if n > 0 {
			m.Opcodes = append(m.Opcodes, OpMetrics{Opcode: wam.Op(op).String(), Count: n})
		}
	}
	sort.Slice(m.Opcodes, func(i, j int) bool {
		if m.Opcodes[i].Count != m.Opcodes[j].Count {
			return m.Opcodes[i].Count > m.Opcodes[j].Count
		}
		return m.Opcodes[i].Opcode < m.Opcodes[j].Opcode
	})
	return m
}
