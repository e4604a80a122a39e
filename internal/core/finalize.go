package core

import (
	"time"

	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/term"
)

// This file implements the deterministic presentation pass shared by
// both strategies (naive and worklist).
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
// The finalize pass removes that dependence: it walks the program once,
// depth-first from the entry patterns, and rebuilds both parts of the
// presentation from scratch. Calling patterns are rediscovered exactly
// as reachable under converged summaries, in deterministic depth-first
// order; each entry's published summary is the lub of its clause
// successes under those summaries, free of historical contributions.
// The converged table is consulted only where the walk cannot supply a
// value of its own: a cyclic consultation (the entry is still being
// presented) reads the table's converged summary.
// At such points the strategies' tables agree — the converged summary
// function is the same under every schedule (the join argument above) —
// so the reported table (Entries, summaries, TableSize, Report,
// Marshal) is a pure function of the fixpoint, identical across
// strategies and schedules. internal/baseline runs the
// same replay over its meta-interpreted table, which is what lets the
// cross-validation suite compare the two analyzers byte for byte.
//
// Replay instead of re-execution: the naive and worklist fixpoints record
// each entry's last completed exploration (recorder: its first reads of
// callee summaries and its clause successes, in order). When those
// strategies stop, every entry's last exploration read only converged
// summaries — the last naive iteration changed nothing, and any later
// growth would have re-enqueued a worklist entry. Running a clause is a
// deterministic function of the calling pattern and the summaries it
// reads, so the walk's execution of an entry can differ from that
// exploration only where a callee's *presented* summary differs from the
// converged one it read. replayFin therefore presents the recorded
// callees in order through the normal call path (same consultations,
// same discovery order; replayRec, the walk the naive fixpoint also
// uses to skip unchanged explorations), and publishes the merge of the
// recorded successes when every presented summary equals the recorded
// one. At the first mismatch it falls back to running the entry's clauses
// (exploreFin); the prefix already presented is exactly what the
// execution would have presented, so the result is the same either way.
// Entries without a record, which the fixpoint never explored, also run
// their clauses. An undefined predicate records an empty exploration.
// Warm-seeded entries replay their cached trace instead.
//
// Termination needs no in-flight bookkeeping: an entry is added to the
// presentation table before its clauses run (carrying the converged
// summary while in progress), so recursive occurrences memo-return immediately
// and each calling pattern is explored at most once.
//
// Completeness of the converged table is a property of the strategies:
// at termination every entry's last exploration read only final
// summaries (any later growth would have re-enqueued it), so the calling
// patterns generated under final summaries were all inserted before the
// queue drained. Soundness of the recomputed summaries follows by
// induction over the replay: every callee value read is either itself
// recomputed from sound values or a converged (sound) table summary,
// and clause execution over sound callee summaries yields sound success
// patterns.

// recorder keeps each entry's last completed exploration under the naive
// or worklist fixpoint, for the naive fixpoint and finalize to replay.
// Nothing in it holds a pointer, so the garbage collector never scans
// it, and an exploration is named by its entry's ID, never by a pointer
// into a slice a nested exploration may grow.
type recorder struct {
	// byID[id] locates entry id's last completed exploration in items.
	byID []exploreRec
	// items holds the completed explorations' streams; a re-exploration
	// overwrites its slot when the new stream fits.
	items []recItem
	// stack holds the streams of the explorations in progress, innermost
	// on top: cur's stream starts at base. Explorations nest strictly, so
	// each stream stays contiguous.
	stack []recItem
	cur   domain.PatternID
	base  int
}

// exploreRec locates one exploration's stream: items[off:off+n], in a
// slot of cap items.
type exploreRec struct {
	off, n, cap int32
	done        bool
}

// recItem is one element of an exploration's stream, in execution order.
// A callee's first read (n ≥ 1) carries the callee's ID, the summary
// that read returned and how many times the exploration read the callee
// in all; a clause success (n = 0) carries the interned success pattern.
type recItem struct {
	id, summ domain.PatternID
	n        int32
}

// recFrame is the recording state an exploration's end restores.
type recFrame struct {
	cur  domain.PatternID
	base int
}

// beginRec starts recording id's exploration; BottomID, which names no
// calling pattern, suspends recording until the frame is restored.
func (a *Analyzer) beginRec(id domain.PatternID) recFrame {
	r := &a.rec
	prev := recFrame{r.cur, r.base}
	r.cur, r.base = id, len(r.stack)
	return prev
}

// endRec stores the exploration's stream as id's record, replacing the
// previous one, and resumes recording the enclosing exploration.
func (a *Analyzer) endRec(id domain.PatternID, prev recFrame) {
	r := &a.rec
	if n := int(id) + 1; n > len(r.byID) {
		r.byID = append(r.byID, make([]exploreRec, n-len(r.byID))...)
	}
	s := r.stack[r.base:]
	er := &r.byID[id]
	if len(s) > int(er.cap) {
		er.off, er.cap = int32(len(r.items)), int32(len(s))
		r.items = append(r.items, s...)
	} else {
		copy(r.items[er.off:], s)
	}
	er.n, er.done = int32(len(s)), true
	r.stack = r.stack[:r.base]
	r.cur, r.base = prev.cur, prev.base
}

// noteRead records a read of callee id's summary, as the fixpoint table
// holds it after the call returned, on the exploration in progress.
func (a *Analyzer) noteRead(id domain.PatternID) {
	r := &a.rec
	if r.cur == domain.BottomID || a.err != nil {
		return
	}
	s := r.stack[r.base:]
	for i := range s {
		if s[i].n > 0 && s[i].id == id {
			s[i].n++
			return
		}
	}
	r.stack = append(r.stack, recItem{id: id, summ: a.table.Get(id).succID, n: 1})
}

// noteSucc records a clause success of the exploration in progress.
func (a *Analyzer) noteSucc(spID domain.PatternID) {
	a.rec.stack = append(a.rec.stack, recItem{id: spID})
}

// finState is the finalize-pass bookkeeping; solve dispatches on it.
// The presentation index is an ID-indexed slice, like the tables.
type finState struct {
	index []*Entry
	order []*Entry
	// replayed and executed count the entries presented from their
	// exploration record and those whose clauses ran (Metrics).
	replayed, executed int64
	// cur is the entry whose clauses (or cached trace) are being
	// replayed; consultations are recorded on it, deduplicated through
	// the entry's ConsultIDs (first occurrences only — repeats are
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
	for _, s := range f.cur.ConsultIDs {
		if s == id {
			return
		}
	}
	f.cur.ConsultIDs = append(f.cur.ConsultIDs, id)
	f.cur.Consults = append(f.cur.Consults, cp)
}

// present runs the finalize pass over the converged table and assembles
// the Result.
func (a *Analyzer) present(entries []*domain.Pattern, execDur time.Duration) (*Result, error) {
	finStart := time.Now()
	fs, err := a.finalize(entries)
	if err != nil {
		return nil, err
	}
	m := a.buildMetrics(execDur, time.Since(finStart))
	m.FinalizeReplayed, m.FinalizeExecuted = fs.replayed, fs.executed
	return &Result{
		Tab:        a.tab,
		Entries:    fs.order,
		Steps:      a.Steps,
		Iterations: a.Iterations,
		TableSize:  len(fs.order),
		Warnings:   a.Warnings,
		Metrics:    m,
	}, nil
}

// finalize rebuilds the presentation table from the converged table
// (a.table) and the fixpoint's exploration records, which it drops when
// it returns. The walk shares the fixpoint phase's interner, so its IDs
// index the converged table directly.
// The abstract instructions it executes are not charged to a.Steps: the
// Exec statistic stays comparable to the paper's Table 1 (fixpoint work
// only). For the same reason the pass is invisible to the
// observability layer — its instructions land in scratch counters that
// are thrown away, the tracer is detached, and its Steps count restarts
// at zero, a fresh step allowance — so Metrics totals stay equal to
// Result.Steps and a nearly exhausted fixpoint budget cannot fail the
// presentation pass.
func (a *Analyzer) finalize(entries []*domain.Pattern) (*finState, error) {
	savedSteps := a.Steps
	savedMet, savedTr := a.met, a.tr
	savedAttrFn, savedAttrStart := a.attrFn, a.attrStart
	a.Steps = 0
	a.met = newCounters()
	a.tr = nil
	a.attrFn = term.Functor{}
	a.attrStart = 0
	fs := &finState{}
	a.fin = fs
	defer func() {
		a.fin = nil
		a.rec = recorder{}
		a.Steps = savedSteps
		a.met, a.tr = savedMet, savedTr
		a.attrFn, a.attrStart = savedAttrFn, savedAttrStart
	}()
	for _, cp := range entries {
		// Top level: nothing survives between explorations.
		a.resetHeap()
		a.solve(cp.Canonical())
		if a.err != nil {
			return nil, a.err
		}
	}
	return fs, nil
}

// solveFinID is the reinterpreted call during finalization: memo-return
// when the calling pattern was already presented, otherwise record it
// and present it once (inline, depth-first — the discovery order of a
// sequential first sight), from its exploration record or by running its
// clauses. While the entry is being presented, Succ holds the converged
// table's summary so that cyclic consultations read the fixpoint value;
// replayFin or exploreFin replaces it with the lub of the clause
// successes.
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
	// executing its clauses. The probe comes before the table lookup:
	// trace-replayed callee patterns were never consulted during the
	// warm fixpoint phase, so the converged table has no record of them.
	if a.cfg.Warm != nil {
		if spID, ok := a.cfg.Warm.Seed(id); ok {
			e.Succ = a.in.Pattern(spID)
			e.succID = spID
			e.warm = true
			a.fin.put(id, e)
			a.fin.order = append(a.fin.order, e)
			prev := a.fin.cur
			a.fin.cur = e
			for _, dep := range a.cfg.Warm.Trace(id) {
				a.solveID(a.in.Pattern(dep), dep)
				if a.err != nil {
					break
				}
			}
			a.fin.cur = prev
			return e.Succ
		}
	}
	if oe := a.table.Get(id); oe != nil {
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
	if a.replayFin(e) {
		a.fin.replayed++
	} else {
		a.fin.executed++
		a.exploreFin(e)
	}
	a.fin.cur = prev
	return e.Succ
}

// replayRec walks id's last recorded exploration, for both the naive
// fixpoint (replayNaive) and finalize (replayFin): it presents each
// recorded callee at its first read through solveID, under whichever
// phase runs, compares the summary then held for it with the recorded
// one, and hands each recorded success to succ when non-nil. It returns
// the stream and how many items it walked — all when ok, else through
// the first mismatching read; ok is false without a record, at a
// mismatch or on an error. Nested explorations never record into id's
// slot: id is already marked explored or presented.
func (a *Analyzer) replayRec(id domain.PatternID, succ func(domain.PatternID)) (items []recItem, n int, ok bool) {
	if int(id) >= len(a.rec.byID) || !a.rec.byID[id].done {
		return nil, 0, false
	}
	er := a.rec.byID[id]
	items = a.rec.items[er.off : er.off+er.n]
	for i, it := range items {
		if it.n == 0 {
			if succ != nil {
				succ(it.id)
			}
			continue
		}
		a.solveID(a.in.Pattern(it.id), it.id)
		if a.err != nil || a.heldSumm(it.id) != it.summ {
			return items, i + 1, false
		}
	}
	return items, len(items), true
}

// heldSumm returns the summary ID held for id after a call: the
// presented entry's under finalize, the fixpoint table's otherwise.
func (a *Analyzer) heldSumm(id domain.PatternID) domain.PatternID {
	if a.fin != nil {
		return a.fin.get(id).succID
	}
	return a.table.Get(id).succID
}

// replayFin presents e from its last fixpoint exploration: it replays
// the recorded stream (replayRec), folding each clause success in, and
// publishes the fold when every presented summary equals the one the
// exploration read. It reports false — leaving the entry to exploreFin —
// when e has no record or at the first mismatching read.
func (a *Analyzer) replayFin(e *Entry) bool {
	accID := domain.BottomID
	items, n, ok := a.replayRec(e.ID, func(spID domain.PatternID) {
		accID = a.foldSucc(e, accID, spID)
	})
	if a.err != nil {
		return true
	}
	if !ok {
		// exploreFin reruns the same path up to the mismatching read,
		// reading each callee so far once more: take those repeats back
		// out.
		for _, p := range items[:n] {
			if p.n > 0 {
				a.fin.get(p.id).Lookups--
			}
		}
		return false
	}
	for _, it := range items {
		if it.n > 0 {
			a.fin.get(it.id).Lookups += int(it.n) - 1
		}
	}
	e.Succ = a.in.Pattern(accID)
	e.succID = accID
	return true
}

// foldSucc merges a clause success into a presented entry's accumulated
// summary. The converged summary (held in e.Succ while the entry is
// presented) must bound every clause success; a violation means the
// fixpoint phase did not actually converge. A first success is the
// accumulation itself: successes are widened, and merge(⊥, sp) = sp.
func (a *Analyzer) foldSucc(e *Entry, accID, spID domain.PatternID) domain.PatternID {
	if e.succID == domain.BottomID || !a.leqSumm(spID, e.succID) {
		a.warnOnce("core: finalize: summary not converged for " + e.CP.String(a.tab))
	}
	if accID == domain.BottomID {
		return spID
	}
	accID, _ = a.mergeSumm(accID, spID)
	return accID
}

// exploreFin runs the entry's clauses once against the converged
// summaries and recomputes the published summary as the lub of the
// clause successes — the single-history value every schedule agrees on.
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
			accID = a.foldSucc(e, accID, a.abstractID(e.CP.Fn, argAddrs))
		}
		a.h.Undo(mark)
	}
	e.Succ = a.in.Pattern(accID)
	e.succID = accID
}
