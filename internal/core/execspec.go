package core

import (
	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/wam"
)

// This file holds the caches and pools behind the dispatch loop
// (exec.go): the materialization-plan cache, the per-ID clause-selection
// cache and the environment/argument pools. The caches are active only
// under specialize.Options.PreIntern; they change wall time and
// interner traffic, never results, Steps or the opcode histogram.

// matPlan is a cached materialization: the cell block materialize(p)
// pushes, with address payloads relativized to the block base, plus the
// root offsets. Replaying a plan appends the block and rebases the
// addresses — byte-identical cells to a fresh materialize, without
// walking the pattern graph or allocating per node.
type matPlan struct {
	cells []rt.Cell
	roots []int32
	// bad marks a pattern whose materialization referenced cells outside
	// its own block (never happens with the current materializeTerm, but
	// the recorder verifies rather than assumes); such patterns always
	// take the slow path.
	bad bool
}

// planFor returns (recording on first sight) the materialization plan
// for the pattern with the given ID, or nil when the pattern must take
// the slow path this time (the recording call itself, or a bad plan).
// When nil is returned with recorded=true, the caller's materialize
// already ran as part of recording and addrs holds its result.
func (a *Analyzer) planFor(p *domain.Pattern, id domain.PatternID) (pl *matPlan, addrs []int) {
	if int(id) >= len(a.matPlans) {
		grown := make([]*matPlan, int(id)+64)
		copy(grown, a.matPlans)
		a.matPlans = grown
	}
	pl = a.matPlans[id]
	if pl == nil {
		base := a.h.Top()
		addrs = a.materialize(p)
		a.matPlans[id] = recordPlan(a.h, base, addrs)
		return nil, addrs
	}
	if pl.bad {
		return nil, a.materialize(p)
	}
	return pl, nil
}

// replayPlan appends the plan's cell block to the heap, rebases its
// address payloads and writes the rebased roots into dst (which must
// have len(pl.roots)).
func (a *Analyzer) replayPlan(pl *matPlan, dst []int) {
	h := a.h
	base := len(h.Cells)
	h.Cells = append(h.Cells, pl.cells...)
	blk := h.Cells[base:]
	for i := range blk {
		switch blk[i].Tag {
		case rt.Ref, rt.Str, rt.Lis, rt.AList:
			blk[i].A += base
		}
	}
	for i, r := range pl.roots {
		dst[i] = base + int(r)
	}
}

// materializeFast is materialize through the per-analysis plan cache,
// keyed by the pattern's interned ID.
func (a *Analyzer) materializeFast(p *domain.Pattern, id domain.PatternID) []int {
	pl, addrs := a.planFor(p, id)
	if pl == nil {
		return addrs
	}
	out := make([]int, len(pl.roots))
	a.replayPlan(pl, out)
	return out
}

// recordPlan captures the cells materialize just pushed, relativized to
// base. materializeTerm only ever references cells within its own block
// (it pushes fresh cells and links them forward); recordPlan verifies
// that and marks the plan bad otherwise.
func recordPlan(h *rt.Heap, base int, roots []int) *matPlan {
	top := h.Top()
	pl := &matPlan{
		cells: append([]rt.Cell(nil), h.Cells[base:top]...),
		roots: make([]int32, len(roots)),
	}
	for i := range pl.cells {
		switch pl.cells[i].Tag {
		case rt.Ref, rt.Str, rt.Lis, rt.AList:
			if pl.cells[i].A < base || pl.cells[i].A >= top {
				pl.bad = true
				return pl
			}
			pl.cells[i].A -= base
		}
	}
	for i, r := range roots {
		if r < base || r >= top {
			pl.bad = true
			return pl
		}
		pl.roots[i] = int32(r - base)
	}
	return pl
}

// applyPatternID unifies a success pattern onto the caller's argument
// cells — the deterministic return of the extension-table scheme —
// materializing it through the plan cache when pre-interning is active.
// The materialized roots are only read inside the unification loop, so
// the replay path borrows a pooled slice instead of allocating.
func (a *Analyzer) applyPatternID(p *domain.Pattern, id domain.PatternID, argAddrs []int) bool {
	var matAddrs []int
	var pooled bool
	if a.specPre && id != domain.BottomID {
		pl, addrs := a.planFor(p, id)
		if pl != nil {
			matAddrs = a.allocArgs(len(pl.roots))
			pooled = true
			a.replayPlan(pl, matAddrs)
		} else {
			matAddrs = addrs
		}
	} else {
		matAddrs = a.materialize(p)
	}
	for i := range argAddrs {
		if !a.absUnify(rt.MkRef(argAddrs[i]), rt.MkRef(matAddrs[i])) {
			if pooled {
				a.releaseArgs(matAddrs)
			}
			return false
		}
	}
	if pooled {
		a.releaseArgs(matAddrs)
	}
	return true
}

// selectClausesEntry is selectClauses through the per-ID cache when
// pre-interning is active: clause selection is a pure function of the
// module and the calling pattern, which the interned ID names, and the
// fixpoint re-explores the same entries many times.
func (a *Analyzer) selectClausesEntry(proc *wam.Proc, cp *domain.Pattern, id domain.PatternID) []int {
	if !a.specPre {
		return a.selectClauses(proc, cp)
	}
	if int(id) >= len(a.selCache) {
		grown := make([][]int, int(id)+64)
		copy(grown, a.selCache)
		a.selCache = grown
		gd := make([]bool, int(id)+64)
		copy(gd, a.selDone)
		a.selDone = gd
	}
	if a.selDone[id] {
		return a.selCache[id]
	}
	out := a.selectClauses(proc, cp)
	a.selCache[id] = out
	a.selDone[id] = true
	return out
}

// materializeEntry materializes an entry's calling pattern for clause
// exploration, through the plan cache when active — the shared head of
// the four explore loops.
func (a *Analyzer) materializeEntry(cp *domain.Pattern, id domain.PatternID) []int {
	if a.specPre && id != domain.BottomID {
		return a.materializeFast(cp, id)
	}
	return a.materialize(cp)
}

// allocEnv draws a zeroed environment frame from the pool (LIFO: clause
// execution nests strictly, so frames free in reverse order).
func (a *Analyzer) allocEnv(n int) []rt.Cell {
	if k := len(a.envPool); k > 0 {
		e := a.envPool[k-1]
		a.envPool = a.envPool[:k-1]
		if cap(e) >= n {
			e = e[:n]
			for i := range e {
				e[i] = rt.Cell{}
			}
			return e
		}
	}
	return make([]rt.Cell, n)
}

func (a *Analyzer) releaseEnv(e []rt.Cell) {
	if cap(e) > 0 && len(a.envPool) < 64 {
		a.envPool = append(a.envPool, e)
	}
}

// allocArgs draws an argument-address slice from the pool.
func (a *Analyzer) allocArgs(n int) []int {
	if k := len(a.argPool); k > 0 {
		s := a.argPool[k-1]
		a.argPool = a.argPool[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int, n)
}

func (a *Analyzer) releaseArgs(s []int) {
	if cap(s) > 0 && len(a.argPool) < 64 {
		a.argPool = append(a.argPool, s)
	}
}
