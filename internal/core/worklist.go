package core

import (
	"sort"

	"awam/internal/domain"
	"awam/internal/rt"
)

// This file implements the worklist fixpoint strategy — the "better
// algorithms for abstract interpretation such as those described in
// [Le Charlier/Musumbu/Van Hentenryck 1991]" that the paper's Section 6
// leaves as future work. Instead of re-running the whole analysis until
// an iteration changes nothing (the extension-table scheme's iterative
// deepening), the analyzer records which calling patterns each
// exploration consulted and, when a success pattern grows, re-explores
// only its dependents.
//
// Both strategies compute the same least fixpoint (tested across the
// benchmark suites); the worklist executes fewer abstract instructions
// on programs whose table has deep dependency chains.

// Strategy selects the fixpoint iteration algorithm.
type Strategy int

const (
	// StrategyNaive is the paper's scheme: iterate the whole analysis
	// until no success pattern changes.
	StrategyNaive Strategy = iota
	// StrategyWorklist re-explores only the dependents of changed
	// entries.
	StrategyWorklist
)

// wlState carries the worklist bookkeeping, keyed by the entries'
// interned calling-pattern IDs.
type wlState struct {
	// dependents[id] = set of entry IDs whose exploration consulted id
	// and must be revisited when its success pattern grows; like the
	// marks below it is indexed by the dense ID.
	dependents []map[domain.PatternID]bool
	// exploring marks in-flight entries (recursive calls read their
	// current success pattern instead of re-entering).
	exploring []bool
	// queued marks entries already on the worklist.
	queued []bool
	queue  []*Entry
	// current is the entry being explored (dependency recording).
	current *Entry
	// explorations counts exploreWL runs (reported as Iterations).
	explorations int
}

func growBits(s []bool, id domain.PatternID) []bool {
	for int(id) >= len(s) {
		s = append(s, make([]bool, 64)...)
	}
	return s
}

func (w *wlState) isExploring(id domain.PatternID) bool {
	return int(id) < len(w.exploring) && w.exploring[id]
}

func (w *wlState) setExploring(id domain.PatternID, v bool) {
	w.exploring = growBits(w.exploring, id)
	w.exploring[id] = v
}

// deps returns id's dependent set (nil when none recorded).
func (w *wlState) deps(id domain.PatternID) map[domain.PatternID]bool {
	if int(id) < len(w.dependents) {
		return w.dependents[id]
	}
	return nil
}

func (w *wlState) addDep(on, dependent domain.PatternID) {
	for int(on) >= len(w.dependents) {
		w.dependents = append(w.dependents, make([]map[domain.PatternID]bool, 64)...)
	}
	m := w.dependents[on]
	if m == nil {
		m = make(map[domain.PatternID]bool)
		w.dependents[on] = m
	}
	m[dependent] = true
}

// enqueue schedules e, reporting whether it was newly added (false when
// already queued — the observability layer counts real insertions only).
func (w *wlState) enqueue(e *Entry) bool {
	w.queued = growBits(w.queued, e.ID)
	if w.queued[e.ID] {
		return false
	}
	w.queued[e.ID] = true
	w.queue = append(w.queue, e)
	return true
}

// fixWorklist is the worklist fixpoint, the counterpart of the naive
// loop in fixpoint().
func (a *Analyzer) fixWorklist(entries []*domain.Pattern) error {
	a.wl = &wlState{}
	a.resetHeap()
	for _, cp := range entries {
		a.solve(cp.Canonical())
		if a.err != nil {
			return a.err
		}
	}
	for len(a.wl.queue) > 0 {
		e := a.wl.queue[0]
		a.wl.queue = a.wl.queue[1:]
		a.wl.queued[e.ID] = false
		a.noteHeap()
		a.resetHeap()
		a.exploreWL(e)
		if a.err != nil {
			return a.err
		}
	}
	a.Iterations = a.wl.explorations
	a.wl = nil
	a.attrClose()
	a.noteHeap()
	return nil
}

// solveWLID is the reinterpreted call under the worklist strategy:
// ensure the entry exists (exploring it on first sight), record the
// dependency, and return the current success pattern.
func (a *Analyzer) solveWLID(cp *domain.Pattern, id domain.PatternID) *domain.Pattern {
	if a.err != nil {
		return nil
	}
	t0, timed := a.met.sampleTable()
	e := a.table.Get(id)
	a.met.doneTable(t0, timed)
	if e == nil {
		e = &Entry{ID: id, CP: a.in.Pattern(id)}
		a.table.Add(e)
		a.met.misses++
		a.met.inserts++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableMiss)
			a.tr.Table(cp.Fn, TableInsert)
		}
		// Warm start: a cached converged summary for this calling pattern
		// (unchanged predicate cone) is seeded as-is instead of explored.
		// It can never grow — its value depends only on its cone — so no
		// dependent ever needs re-enqueueing on its account.
		if a.cfg.Warm != nil {
			if spID, ok := a.cfg.Warm.Seed(id); ok {
				e.Succ = a.in.Pattern(spID)
				e.succID = spID
				e.warm = true
				a.met.warmHits++
			} else {
				a.met.warmMisses++
			}
		}
		if !e.warm {
			a.exploreWL(e)
		}
	} else {
		e.Lookups++
		a.met.hits++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableHit)
		}
	}
	if a.wl.current != nil {
		// Self-dependencies included: a recursive clause that read its
		// own in-flight summary must rerun when the summary grows.
		a.wl.addDep(id, a.wl.current.ID)
	}
	return e.Succ
}

// exploreWL runs the entry's clauses once, lubbing success patterns and
// enqueueing dependents when the summary grows.
func (a *Analyzer) exploreWL(e *Entry) {
	if e.warm {
		// Seeded entries are converged by construction; nothing to run.
		return
	}
	if a.wl.isExploring(e.ID) {
		// Recursive occurrence: the caller proceeds with the current
		// success pattern; a self-dependency has been recorded, so the
		// entry is revisited if it grows.
		return
	}
	a.wl.setExploring(e.ID, true)
	a.wl.explorations++
	a.met.predRuns[e.CP.Fn]++
	prev := a.wl.current
	a.wl.current = e
	prevRec := a.beginRec(e.ID)
	prevFn := a.attrSwitch(e.CP.Fn)
	defer func() {
		a.attrRestore(prevFn)
		a.endRec(e.ID, prevRec)
		a.wl.current = prev
		a.wl.setExploring(e.ID, false)
	}()

	proc := a.mod.Proc(e.CP.Fn)
	if proc == nil {
		return
	}
	for _, clauseAddr := range a.selectClauses(proc, e.CP) {
		mark := a.h.Mark()
		argAddrs := a.materialize(e.CP)
		a.ensureX(e.CP.Fn.Arity)
		for i, addr := range argAddrs {
			a.x[i+1] = rt.MkRef(addr)
		}
		ok := a.run(clauseAddr)
		if a.err != nil {
			return
		}
		if ok {
			spID := a.abstractID(e.CP.Fn, argAddrs)
			a.noteSucc(spID)
			if e.succID == domain.BottomID || !a.leqSumm(spID, e.succID) {
				nextID, next := a.mergeSumm(e.succID, spID)
				if nextID != e.succID {
					e.Succ = next
					e.succID = nextID
					e.Updates++
					a.met.updates++
					if a.tr != nil {
						a.tr.Table(e.CP.Fn, TableUpdate)
					}
					// Enqueue dependents in ascending ID order (not map
					// iteration order): interned IDs are assigned
					// deterministically by the sequential engine, so this
					// makes the exploration schedule — and with it Steps
					// and the opcode histogram — a stable quantity,
					// directly comparable between runs and between
					// stream configurations.
					deps := a.wl.deps(e.ID)
					ids := make([]domain.PatternID, 0, len(deps))
					for dep := range deps {
						ids = append(ids, dep)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for _, dep := range ids {
						if de := a.table.Get(dep); de != nil && a.wl.enqueue(de) {
							a.met.enqueues++
							if a.tr != nil {
								a.tr.Enqueue(de.CP.Fn)
							}
						}
					}
				}
			}
		}
		a.h.Undo(mark)
	}
}
