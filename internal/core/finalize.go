package core

import (
	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/term"
)

// This file implements the deterministic presentation pass shared by
// all three strategies (naive, worklist, parallel).
//
// Every strategy converges the summary function (calling pattern ->
// merged success pattern) by chaotic iteration. Since the widening
// became an upper closure, the converged summary function itself is
// schedule-independent: the table stores only widened canonical
// patterns, and merge = widen ∘ lub is an idempotent, commutative,
// associative join on that subdomain (domain/laws_test.go), so the
// accumulated value of each entry is the join of the set of
// contributions, not of their history. What stays schedule-dependent
// is the raw table's *presentation*: a clause explored under an
// intermediate summary can generate calling patterns that no longer
// occur once its callees reach their fixpoint (transients), and
// discovery order differs per schedule.
//
// The finalize pass removes that dependence: it re-explores the program
// once, depth-first from the entry patterns, and rebuilds both parts of
// the presentation from scratch. Calling patterns are rediscovered
// exactly as reachable under converged summaries, in deterministic
// depth-first order; each entry's published summary is recomputed as the
// lub of its clause successes under those summaries, free of historical
// contributions. The converged oracle is consulted only where the replay
// cannot supply a value of its own: a cyclic consultation (the entry is
// still running its own clauses) reads the oracle's converged summary.
// At such points the strategies' oracles agree — the converged summary
// function is the same under every schedule (the join argument above) —
// so the reported table (Entries, summaries, TableSize, Report,
// Marshal) is a pure function of the fixpoint, identical across
// strategies, worker counts and schedules. internal/baseline runs the
// same replay over its meta-interpreted table, which is what lets the
// cross-validation suite compare the two analyzers byte for byte.
//
// Termination needs no in-flight bookkeeping: an entry is added to the
// presentation table before its clauses run (carrying the oracle summary
// while in progress), so recursive occurrences memo-return immediately
// and each calling pattern is explored at most once.
//
// Completeness of the oracle is a property of the converged strategies:
// at termination every entry's last exploration read only final
// summaries (any later growth would have re-enqueued it), so the calling
// patterns generated under final summaries were all inserted before the
// queue drained. Soundness of the recomputed summaries follows by
// induction over the replay: every callee value read is either itself
// recomputed from sound values or a converged (sound) oracle summary,
// and clause execution over sound callee summaries yields sound success
// patterns.

// summaryOracle answers converged-summary lookups by interned ID; both
// DenseTable and DenseShardedTable satisfy it.
// The replay shares the fixpoint phase's interner, so its IDs are
// directly comparable with the oracle's.
type summaryOracle interface {
	Get(id domain.PatternID) *Entry
}

// finState is the finalize-pass bookkeeping; solve dispatches on it.
// The presentation index is an ID-indexed slice, like the tables.
type finState struct {
	oracle summaryOracle
	index  []*Entry
	order  []*Entry
	// cur is the entry whose clauses (or cached trace) are being
	// replayed; consultations are recorded on it, deduplicated through
	// the entry's finSeen scratch (first occurrences only — repeats are
	// no-ops for discovery, so replaying first sights reproduces the
	// order).
	cur *Entry
}

// get returns the presented entry for id, or nil.
func (f *finState) get(id domain.PatternID) *Entry {
	if int(id) < len(f.index) {
		return f.index[id]
	}
	return nil
}

// put records a presented entry under its ID.
func (f *finState) put(id domain.PatternID, e *Entry) {
	for int(id) >= len(f.index) {
		f.index = append(f.index, nil)
	}
	f.index[id] = e
}

// consult records that the current entry's replay consulted id.
func (f *finState) consult(id domain.PatternID, cp *domain.Pattern) {
	if f.cur == nil {
		return
	}
	for _, s := range f.cur.finSeen {
		if s == id {
			return
		}
	}
	f.cur.finSeen = append(f.cur.finSeen, id)
	f.cur.Consults = append(f.cur.Consults, cp)
}

// finalize rebuilds the presentation table from the converged oracle.
// The abstract instructions it executes are not charged to a.Steps: the
// Exec statistic stays comparable to the paper's Table 1 (fixpoint work
// only). For the same reason the replay is invisible to the
// observability layer — its instructions land in a scratch metrics shard
// that is thrown away, the tracer is detached, and it draws on a private
// step budget — so Metrics totals stay equal to Result.Steps and a
// nearly exhausted fixpoint budget cannot fail the presentation pass.
func (a *Analyzer) finalize(entries []*domain.Pattern, oracle summaryOracle) ([]*Entry, error) {
	savedSteps := a.Steps
	savedMet, savedTr := a.met, a.tr
	savedBudget, savedReserved, savedAllow := a.budget, a.reserved, a.allow
	savedAttrFn, savedAttrStart := a.attrFn, a.attrStart
	a.Steps = 0
	a.met = newMetricsShard()
	a.tr = nil
	a.budget = newStepBudget(a.cfg.MaxSteps)
	a.reserved, a.allow = 0, 0
	a.attrFn = term.Functor{}
	a.attrStart = 0
	a.fin = &finState{oracle: oracle}
	defer func() {
		a.fin = nil
		a.Steps = savedSteps
		a.met, a.tr = savedMet, savedTr
		a.budget, a.reserved, a.allow = savedBudget, savedReserved, savedAllow
		a.attrFn, a.attrStart = savedAttrFn, savedAttrStart
	}()
	for _, cp := range entries {
		// Top level: nothing survives between explorations (the parallel
		// driver reaches here with a nil heap of its own).
		a.resetHeap()
		a.solve(cp.Canonical())
		if a.err != nil {
			return nil, a.err
		}
	}
	for _, e := range a.fin.order {
		e.finSeen = nil // scratch only; don't retain it in the result
	}
	return a.fin.order, nil
}

// solveFinID is the reinterpreted call during finalization: memo-return
// when the calling pattern was already presented, otherwise record it
// and explore its clauses once (inline, depth-first — the discovery
// order of a sequential first sight), recomputing its summary from the
// clause successes. While the entry's own clauses run, Succ holds the
// converged oracle summary so that cyclic consultations read the
// fixpoint value; exploreFin replaces it with the recomputed lub.
func (a *Analyzer) solveFinID(cp *domain.Pattern, id domain.PatternID) *domain.Pattern {
	if a.err != nil {
		return nil
	}
	if e := a.fin.get(id); e != nil {
		e.Lookups++
		a.fin.consult(id, e.CP)
		return e.Succ
	}
	e := &Entry{ID: id, CP: a.in.Pattern(id)}
	a.fin.consult(id, e.CP)
	// Warm start: a cached entry's presentation is replayed from its
	// recorded trace — same summary, same discovery order — without
	// executing its clauses. The probe comes before the oracle lookup:
	// trace-replayed callee patterns were never consulted during the
	// warm fixpoint phase, so the converged table has no record of them.
	if a.cfg.Warm != nil {
		if sp, ok := a.cfg.Warm.Seed(cp.Fn, e.CP.Key()); ok {
			spID := a.intern(sp)
			e.Succ = a.in.Pattern(spID)
			e.succID = spID
			e.warm = true
			a.fin.put(id, e)
			a.fin.order = append(a.fin.order, e)
			prev := a.fin.cur
			a.fin.cur = e
			for _, dep := range a.cfg.Warm.Trace(cp.Fn, e.CP.Key()) {
				a.solve(dep)
				if a.err != nil {
					break
				}
			}
			a.fin.cur = prev
			return e.Succ
		}
	}
	if oe := a.fin.oracle.Get(id); oe != nil {
		e.Succ = oe.Succ
		e.succID = oe.succID
	} else {
		// Should be unreachable at a true fixpoint; kept as a warning so
		// a convergence bug surfaces as imprecision, not silence.
		a.warnOnce("core: finalize: calling pattern missing from converged table: " + cp.String(a.tab))
	}
	a.fin.put(id, e)
	a.fin.order = append(a.fin.order, e)
	prev := a.fin.cur
	a.fin.cur = e
	a.exploreFin(e)
	a.fin.cur = prev
	return e.Succ
}

// exploreFin runs the entry's clauses once against the converged
// summaries and recomputes the published summary as the lub of the
// clause successes — the single-history value every schedule agrees on.
// The converged summary (held in e.Succ during the loop, visible to
// cyclic consultations) must bound each clause success; a violation
// means the fixpoint phase did not actually converge.
func (a *Analyzer) exploreFin(e *Entry) {
	proc := a.mod.Proc(e.CP.Fn)
	if proc == nil {
		return
	}
	accID := domain.BottomID
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
			sp := a.abstractArgs(e.CP.Fn, argAddrs)
			spID := a.intern(sp)
			if e.succID == domain.BottomID || !a.leqSumm(spID, e.succID) {
				a.warnOnce("core: finalize: summary not converged for " + e.CP.String(a.tab))
			}
			accID, _ = a.mergeSumm(accID, spID)
		}
		a.h.Undo(mark)
	}
	e.Succ = a.in.Pattern(accID)
	e.succID = accID
}
