package core

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"awam/internal/domain"
	"awam/internal/rt"
)

// This file implements StrategyParallel: the worklist fixpoint of
// worklist.go run by N worker goroutines over a lock-striped extension
// table (DenseShardedTable). Each worker owns a private Analyzer — its own
// heap, X registers, step counter and warnings — and pulls table entries
// from a shared queue. Soundness of any interleaving rests on the same
// property the sequential strategies use: success-pattern updates are
// monotone lub-merges on a finite (depth-k-widened) lattice, so chaotic
// iteration converges to the same least fixpoint regardless of schedule
// (the confluence argument of Le Charlier-style dependency-driven
// iteration). Determinism of the *reported* table is then restored by
// the finalize pass (finalize.go).
//
// Two scheduling differences from the sequential worklist:
//
//   - Workers never explore a callee inline. solveParID registers the
//     dependency edge, returns the callee's current summary (bottom on
//     first sight) and lets the queue schedule the callee — inline
//     depth-first exploration would serialize the frontier.
//   - A call whose summary is still bottom does not abort the clause
//     during the fixpoint phase. The worker keeps executing to discover
//     the calling patterns of later goals (speculative discovery); the
//     clause's own success is discarded. Entries discovered under
//     under-instantiated arguments are explored like any other and
//     simply go unused by finalize.

// parState is the shared state of one parallel analysis.
type parState struct {
	table *DenseShardedTable

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*Entry
	idle  int
	n     int // worker count
	done  bool
	err   error
}

func newParState(n int) *parState {
	ps := &parState{table: NewDenseShardedTable(), n: n}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// enqueue schedules e unless it is already queued, reporting whether it
// was newly added. Callers must not hold any entry mutex ordering issue:
// parState.mu is always the innermost lock (never held while taking an
// Entry.mu or a shard mutex).
func (ps *parState) enqueue(e *Entry) bool {
	added := false
	ps.mu.Lock()
	if !e.inQueue && !ps.done {
		e.inQueue = true
		ps.queue = append(ps.queue, e)
		ps.cond.Signal()
		added = true
	}
	ps.mu.Unlock()
	return added
}

// enqueueAll schedules every entry not already queued, compacting es in
// place and returning the subset actually added (the caller owns es, so
// the observability layer gets the real insertion set without an
// allocation).
func (ps *parState) enqueueAll(es []*Entry) []*Entry {
	if len(es) == 0 {
		return nil
	}
	k := 0
	ps.mu.Lock()
	for _, e := range es {
		if !e.inQueue && !ps.done {
			e.inQueue = true
			ps.queue = append(ps.queue, e)
			es[k] = e
			k++
		}
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
	return es[:k]
}

// next blocks until work is available, returning nil at termination.
// Termination is the idle-worker barrier: the queue is empty and every
// worker is parked here, so no one can produce more work.
func (ps *parState) next() *Entry {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if ps.done {
			return nil
		}
		if len(ps.queue) > 0 {
			e := ps.queue[0]
			ps.queue = ps.queue[1:]
			// Cleared at pop, not at completion: growth that lands while
			// the entry is being explored must be able to re-enqueue it.
			e.inQueue = false
			return e
		}
		ps.idle++
		if ps.idle == ps.n {
			ps.done = true
			ps.cond.Broadcast()
			return nil
		}
		ps.cond.Wait()
		ps.idle--
	}
}

// queuedAny reports whether any of ents is currently enqueued (inQueue
// is guarded by the queue lock). Used by the deferral heuristic only —
// a stale answer is harmless.
func (ps *parState) queuedAny(ents []*Entry) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, e := range ents {
		if e.inQueue {
			return true
		}
	}
	return false
}

// fail records the first worker error and wakes everyone to drain out.
func (ps *parState) fail(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.done = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// analyzeParallel is the StrategyParallel driver, the counterpart of
// fixpoint() for the naive and worklist strategies.
func (a *Analyzer) analyzeParallel(entries []*domain.Pattern) (*Result, error) {
	n := a.cfg.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	a.err = nil
	a.Steps = 0
	// One budget for the whole analysis: every worker draws chunked
	// allowances from this shared counter (observe.go), so Config.MaxSteps
	// bounds the total work regardless of worker count.
	a.budget.reset(a.cfg.MaxSteps, n)
	a.reserved, a.allow = 0, 0
	ps := newParState(n)
	execStart := time.Now()

	seeds := make([]*domain.Pattern, len(entries))
	for i, cp := range entries {
		// The interner's canonical rep (Key precomputed, safe to publish).
		c := a.in.Pattern(a.intern(cp.Canonical()))
		seeds[i] = c
		if e, created := ps.table.GetOrAdd(a.intern(c), c); created {
			ps.enqueue(e)
		}
	}

	workers := make([]*Analyzer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Analyzer{
			mod: a.mod, tab: a.tab, cfg: a.cfg, ctx: a.ctx,
			par: ps, h: rt.NewHeap(), x: make([]rt.Cell, 16),
			met: newMetricsShard(), tr: a.tr, budget: a.budget,
			// The interner is shared (concurrent, leaf-level lock); the
			// memo is per-worker and folded in after the barrier. The
			// static call-site cache and the pools are per-worker too.
			in: a.in, memo: domain.NewMemo(),
			spec: a.spec,
		}
		workers[i] = w
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w.runWorker(id)
		}(i)
	}
	wg.Wait()

	// Aggregate private worker state. Warnings are deduped and sorted:
	// which worker saw a warning first is schedule-dependent.
	explorations := 0
	warned := make(map[string]bool, len(a.Warnings))
	for _, w := range a.Warnings {
		warned[w] = true
	}
	for _, w := range workers {
		a.Steps += w.Steps
		explorations += w.Iterations
		a.met.merge(w.met)
		a.memo.Absorb(w.memo)
		for _, msg := range w.Warnings {
			if !warned[msg] {
				warned[msg] = true
				a.Warnings = append(a.Warnings, msg)
			}
		}
	}
	sort.Strings(a.Warnings)
	a.Iterations = explorations
	execDur := time.Since(execStart)
	if ps.err != nil {
		return nil, ps.err
	}

	return a.present(seeds, ps.table, workers, execDur)
}

// runWorker is one worker's loop: pull an entry, explore it on a fresh
// private heap, repeat until the idle barrier closes the queue.
func (w *Analyzer) runWorker(id int) {
	ps := w.par
	if w.tr != nil {
		w.tr.Worker(id, true)
		defer w.tr.Worker(id, false)
	}
	for {
		// Refund the unused step allowance before possibly parking: a
		// blocked worker must not hold budget the busy ones could use.
		w.refundSteps()
		t0 := time.Now()
		e := ps.next()
		w.queueWait += time.Since(t0)
		if e == nil {
			w.attrClose()
			return
		}
		if w.freshReads(e) {
			// Every summary the entry read during its last completed
			// exploration is still current, so re-running its clauses
			// would retrace the identical path and merge identical
			// successes — skip it. This prunes the re-enqueues issued by
			// growth the in-flight exploration had already observed.
			continue
		}
		if w.deferExplore(e) {
			// Some callee this entry reads is itself queued (its summary
			// is likely still climbing): rotate the entry to the back so
			// the callee quiesces first and the caller re-runs once on
			// settled summaries instead of once per growth rung. The
			// per-entry cap bounds rotations, so dependency cycles still
			// make progress; any schedule converges to the same table
			// (DESIGN §3.10), only the wasted-work profile differs.
			ps.enqueue(e)
			continue
		}
		// Iterate the entry to a local fixpoint: a self-recursive entry
		// whose exploration grew a summary it read (typically its own)
		// would otherwise round-trip through the queue once per ladder
		// rung, exposing every intermediate summary to its callers. The
		// loop is bounded by the finite widened domain — each rerun only
		// happens when some read summary strictly grew.
		for {
			w.h.Reset()
			w.Iterations++ // per-worker exploration count
			w.explorePar(e)
			if w.err != nil {
				w.refundSteps()
				ps.fail(w.err)
				w.attrClose()
				return
			}
			if w.freshReads(e) {
				break
			}
		}
	}
}

// solveParID is the reinterpreted call under the parallel strategy:
// ensure the entry exists (scheduling it on first sight), record the
// dependency edge, and return the current summary.
// Recording the edge and reading the summary under the same entry lock
// closes the missed-update race: a merge that lands after our read sees
// our edge and re-enqueues us; a merge before it is the value we read.
func (a *Analyzer) solveParID(cp *domain.Pattern, id domain.PatternID) *domain.Pattern {
	if a.err != nil {
		return nil
	}
	t0, timed := a.met.sampleTable()
	e, created := a.par.table.GetOrAdd(id, a.in.Pattern(id))
	a.met.doneTable(t0, timed)
	if created {
		a.met.misses++
		a.met.inserts++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableMiss)
			a.tr.Table(cp.Fn, TableInsert)
		}
		a.par.enqueue(e)
	} else {
		a.met.hits++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableHit)
		}
	}
	e.mu.Lock()
	e.Lookups++
	if a.parCur != nil {
		if e.deps == nil {
			e.deps = make(map[domain.PatternID]*Entry)
		}
		// Self-edges included: a recursive clause that read its own
		// in-flight summary must rerun when the summary grows.
		e.deps[a.parCur.ID] = a.parCur
	}
	succ, succID := e.Succ, e.succID
	e.mu.Unlock()
	if a.parCur != nil {
		a.recordRead(e, succID)
	}
	return succ
}

// recordRead notes the first summary ID read from callee e during the
// in-flight exploration (later reads of the same callee may observe
// newer values; keeping the first is what makes the skip check in
// runWorker conservative). Consult sets are small, so a linear scan
// beats a map.
func (a *Analyzer) recordRead(e *Entry, succID domain.PatternID) {
	for _, r := range a.parReadEnts {
		if r == e {
			return
		}
	}
	a.parReadEnts = append(a.parReadEnts, e)
	a.parReadVals = append(a.parReadVals, succID)
}

// explorePar runs the entry's clauses once, merging clause successes
// into the shared entry and publishing the consulted-read snapshot the
// skip check in runWorker compares against.
func (w *Analyzer) explorePar(e *Entry) {
	w.parCur = e
	w.parReadEnts = w.parReadEnts[:0]
	w.parReadVals = w.parReadVals[:0]
	w.met.predRuns[e.CP.Fn]++
	prevFn := w.attrSwitch(e.CP.Fn)
	defer func() {
		w.attrRestore(prevFn)
		w.parCur = nil
		if w.err == nil {
			ents := append([]*Entry(nil), w.parReadEnts...)
			vals := append([]domain.PatternID(nil), w.parReadVals...)
			e.mu.Lock()
			e.readEnts, e.readVals = ents, vals
			e.explored = true
			e.deferCount = 0
			e.mu.Unlock()
		}
	}()
	proc := w.mod.Proc(e.CP.Fn)
	if proc == nil {
		return
	}
	for _, clauseAddr := range w.selectClauses(proc, e.CP) {
		mark := w.h.Mark()
		argAddrs := w.materialize(e.CP)
		w.ensureX(e.CP.Fn.Arity)
		for i, addr := range argAddrs {
			w.x[i+1] = rt.MkRef(addr)
		}
		w.specFail = false
		ok := w.run(clauseAddr)
		if w.err != nil {
			return
		}
		if ok {
			sp := w.abstractArgs(e.CP.Fn, argAddrs)
			w.mergeSucc(e, sp)
		}
		w.h.Undo(mark)
	}
}

// freshReads reports whether e has a completed exploration whose every
// recorded callee read is still that callee's current summary. The
// snapshot slices are immutable once published, so they are copied out
// under e.mu and the per-callee checks take each callee's own lock —
// entry locks are never nested.
func (w *Analyzer) freshReads(e *Entry) bool {
	e.mu.Lock()
	explored := e.explored
	ents, vals := e.readEnts, e.readVals
	e.mu.Unlock()
	if !explored {
		return false
	}
	for i, d := range ents {
		d.mu.Lock()
		cur := d.succID
		d.mu.Unlock()
		if cur != vals[i] {
			return false
		}
	}
	return true
}

// deferCap bounds per-entry queue rotations between explorations.
const deferCap = 8

// deferExplore implements the quiesce-callees-first heuristic: an
// already-explored entry whose recorded callee reads include one still
// sitting in the queue is rotated (up to deferCap times) instead of
// re-run.
func (w *Analyzer) deferExplore(e *Entry) bool {
	e.mu.Lock()
	explored, count := e.explored, e.deferCount
	ents := e.readEnts
	e.mu.Unlock()
	if !explored || count >= deferCap || len(ents) == 0 {
		return false
	}
	if !w.par.queuedAny(ents) {
		return false
	}
	e.mu.Lock()
	e.deferCount++
	e.mu.Unlock()
	return true
}

// mergeSucc lubs a clause success into the shared entry — the monotone
// update at the heart of the confluence argument. On growth it snapshots
// the dependents under the entry lock and enqueues them after releasing
// it (parState.mu is never taken while holding an entry mutex).
func (w *Analyzer) mergeSucc(e *Entry, sp *domain.Pattern) {
	// Intern outside the entry lock where possible; the nested interner
	// acquisitions below are safe regardless (leaf-level lock).
	spID := w.intern(sp)
	var deps []*Entry
	e.mu.Lock()
	if e.succID != domain.BottomID && w.leqSumm(spID, e.succID) {
		e.mu.Unlock()
		return
	}
	nextID, next := w.mergeSumm(e.succID, spID)
	if nextID == e.succID {
		e.mu.Unlock()
		return
	}
	e.Succ = next // interner rep: Key precomputed, safe to publish
	e.succID = nextID
	e.Updates++
	if len(e.deps) > 0 {
		deps = make([]*Entry, 0, len(e.deps))
		for _, d := range e.deps {
			deps = append(deps, d)
		}
	}
	e.mu.Unlock()
	w.met.updates++
	if w.tr != nil {
		w.tr.Table(e.CP.Fn, TableUpdate)
	}
	added := w.par.enqueueAll(deps)
	w.met.enqueues += int64(len(added))
	if w.tr != nil {
		for _, d := range added {
			w.tr.Enqueue(d.CP.Fn)
		}
	}
}
