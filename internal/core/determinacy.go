package core

import (
	"fmt"
	"sort"
	"strings"

	"awam/internal/rt"
	"awam/internal/term"
	"awam/internal/wam"
)

// Determinacy information: which calls can be resolved by at most one
// clause. Detecting determinate predicates is one of the optimizations
// the paper's introduction motivates dataflow analysis with (choice
// points for such calls can be skipped entirely).
//
// The estimate is per extension-table entry: a clause "may match" a
// calling pattern when its head unification prefix (the get/unify
// instructions before the first body instruction) succeeds abstractly
// against the materialized pattern. Body failures are not considered, so
// the count over-approximates: "det" here is sound (a det predicate is
// certainly determinate for that call class), "nondet" may be spurious.

// DetEntry reports the matching-clause count for one calling pattern.
type DetEntry struct {
	CP *Entry
	// Matching is the number of clauses whose head prefix can succeed.
	Matching int
	// Clauses is the number of clauses the indexed dispatch considered.
	Clauses int
}

// Det reports whether the call class is determinate.
func (d DetEntry) Det() bool { return d.Matching <= 1 }

// Determinacy computes matching-clause counts for every table entry.
// It runs on the analyzer's heap: calls must not overlap.
func (a *Analyzer) Determinacy(res *Result) []DetEntry {
	return a.DeterminacyOf(res.Entries)
}

// DeterminacyOf computes matching-clause counts for the given entries,
// such as one predicate's.
func (a *Analyzer) DeterminacyOf(ents []*Entry) []DetEntry {
	if a.h == nil {
		a.h = rt.NewHeap()
	}
	out := make([]DetEntry, 0, len(ents))
	for _, e := range ents {
		proc := a.mod.Proc(e.CP.Fn)
		if proc == nil {
			out = append(out, DetEntry{CP: e})
			continue
		}
		clauses := a.selectClauses(proc, e.CP)
		d := DetEntry{CP: e, Clauses: len(clauses)}
		for _, addr := range clauses {
			mark := a.h.Mark()
			argAddrs := a.materialize(e.CP)
			a.ensureX(e.CP.Fn.Arity)
			for i, ad := range argAddrs {
				a.x[i+1] = rt.MkRef(ad)
			}
			if a.runHeadPrefix(addr) {
				d.Matching++
			}
			a.h.Undo(mark)
		}
		out = append(out, d)
	}
	return out
}

// ClauseMatches reports, per analyzed predicate, which clauses can
// head-match at least one recorded calling pattern. The result maps a
// functor to a bool per clause (indexed like Proc.Clauses); false means
// the clause's head unification prefix fails abstractly against every
// calling pattern in the table — such a clause can never match any call
// the analysis reached, so the optimizer may drop it from dispatch.
// Every clause of every predicate is tested (no indexing filter): the
// answer over-approximates concrete matching, never under.
func (a *Analyzer) ClauseMatches(res *Result) map[term.Functor][]bool {
	if a.h == nil {
		a.h = rt.NewHeap()
	}
	out := make(map[term.Functor][]bool)
	for _, e := range res.Entries {
		proc := a.mod.Proc(e.CP.Fn)
		if proc == nil {
			continue
		}
		marks := out[e.CP.Fn]
		if marks == nil {
			marks = make([]bool, len(proc.Clauses))
			out[e.CP.Fn] = marks
		}
		for i, addr := range proc.Clauses {
			if marks[i] {
				continue
			}
			mark := a.h.Mark()
			argAddrs := a.materialize(e.CP)
			a.ensureX(e.CP.Fn.Arity)
			for j, ad := range argAddrs {
				a.x[j+1] = rt.MkRef(ad)
			}
			if a.runHeadPrefix(addr) {
				marks[i] = true
			}
			a.h.Undo(mark)
		}
	}
	return out
}

// runHeadPrefix executes only the head get/unify instructions of a
// clause, reporting whether they can succeed.
func (a *Analyzer) runHeadPrefix(addr int) bool {
	s := 0
	mode := readMode
	var env []rt.Cell
	for p := addr; p < len(a.mod.Code); p++ {
		ins := a.mod.Code[p]
		if ins.A1 > ins.A2 {
			a.ensureX(ins.A1)
		} else {
			a.ensureX(ins.A2)
		}
		switch ins.Op {
		case wam.OpAllocate:
			env = make([]rt.Cell, ins.A2)
		case wam.OpGetLevel, wam.OpNeckCut, wam.OpNop:
		case wam.OpGetVarX:
			a.x[ins.A2] = a.x[ins.A1]
		case wam.OpGetVarY:
			env[ins.A2] = a.x[ins.A1]
		case wam.OpGetValX:
			if !a.absUnify(a.x[ins.A2], a.x[ins.A1]) {
				return false
			}
		case wam.OpGetValY:
			if !a.absUnify(env[ins.A2], a.x[ins.A1]) {
				return false
			}
		case wam.OpGetConst, wam.OpGetConstCmp:
			if !a.absUnify(a.x[ins.A1], rt.MkCon(ins.Fn.Name)) {
				return false
			}
		case wam.OpGetInt, wam.OpGetIntCmp:
			if !a.absUnify(a.x[ins.A1], rt.MkInt(ins.I)) {
				return false
			}
		case wam.OpGetNil, wam.OpGetNilCmp:
			if !a.absUnify(a.x[ins.A1], rt.MkCon(a.tab.Nil)) {
				return false
			}
		case wam.OpGetList, wam.OpGetListRead:
			ok, ns, nm := a.getList(a.x[ins.A1])
			if !ok {
				return false
			}
			s, mode = ns, nm
		case wam.OpGetStruct, wam.OpGetStructRead:
			ok, ns, nm := a.getStruct(a.x[ins.A1], ins.Fn)
			if !ok {
				return false
			}
			s, mode = ns, nm
		case wam.OpUnifyVarX:
			if mode == readMode {
				a.x[ins.A2] = rt.MkRef(s)
				s++
			} else {
				a.x[ins.A2] = rt.MkRef(a.h.PushVar())
			}
		case wam.OpUnifyVarY:
			if mode == readMode {
				env[ins.A2] = rt.MkRef(s)
				s++
			} else {
				env[ins.A2] = rt.MkRef(a.h.PushVar())
			}
		case wam.OpUnifyValX:
			if mode == readMode {
				if !a.absUnify(a.x[ins.A2], rt.MkRef(s)) {
					return false
				}
				s++
			} else {
				a.h.Push(a.x[ins.A2])
			}
		case wam.OpUnifyValY:
			if mode == readMode {
				if !a.absUnify(env[ins.A2], rt.MkRef(s)) {
					return false
				}
				s++
			} else {
				a.h.Push(env[ins.A2])
			}
		case wam.OpUnifyConst:
			if !a.unifyPrefixStep(&s, mode, rt.MkCon(ins.Fn.Name)) {
				return false
			}
		case wam.OpUnifyInt:
			if !a.unifyPrefixStep(&s, mode, rt.MkInt(ins.I)) {
				return false
			}
		case wam.OpUnifyNil:
			if !a.unifyPrefixStep(&s, mode, rt.MkCon(a.tab.Nil)) {
				return false
			}
		case wam.OpUnifyVoid:
			if mode == readMode {
				s += ins.A2
			} else {
				for i := 0; i < ins.A2; i++ {
					a.h.PushVar()
				}
			}
		default:
			// First body/control instruction: the head matched.
			return true
		}
	}
	return true
}

func (a *Analyzer) unifyPrefixStep(s *int, mode absMode, k rt.Cell) bool {
	if mode == readMode {
		ok := a.absUnify(rt.MkRef(*s), k)
		*s = *s + 1
		return ok
	}
	a.h.Push(k)
	return true
}

// DeterminacyReport renders the determinacy table.
func DeterminacyReport(tab *term.Tab, dets []DetEntry) string {
	sorted := append([]DetEntry(nil), dets...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].CP.CP.String(tab) < sorted[j].CP.CP.String(tab)
	})
	var b strings.Builder
	for _, d := range sorted {
		kind := "det"
		if !d.Det() {
			kind = fmt.Sprintf("nondet(%d)", d.Matching)
		}
		fmt.Fprintf(&b, "%-10s %s\n", kind, d.CP.CP.String(tab))
	}
	return b.String()
}
