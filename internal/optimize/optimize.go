// Package optimize applies the dataflow analysis to the compiled code —
// the paper's motivation: "substantial optimizations all depend on
// interprocedural information such as mode, type and variable aliasing".
//
// The pass implemented here is unification specialization: for every
// predicate whose (lubbed) calling patterns prove an argument
// non-variable at each call site, the head get instructions on that
// argument are replaced by read-only variants (get_list*, get_constant*,
// ...) with the write-mode and binding paths compiled away. The concrete
// machine treats an unbound variable reaching a specialized instruction
// as an unsoundness error, so running the optimized module doubles as a
// runtime validation of the analysis.
package optimize

import (
	"slices"

	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
	"awam/internal/wam"
)

// Stats reports what the pass changed.
type Stats struct {
	// Specialized counts rewritten instructions by original opcode name.
	Specialized map[string]int
	// Total is the overall number of rewritten instructions.
	Total int
	// PredsTouched counts predicates with at least one rewrite.
	PredsTouched int
}

// Specialize returns a copy of mod with head unification instructions
// specialized according to the analysis result. The input module is not
// modified: the copy shares mod's switch side table, clipped so that an
// append to the copy's table reallocates it.
func Specialize(mod *wam.Module, res *core.Result) (*wam.Module, *Stats) {
	out := &wam.Module{
		Tab:      mod.Tab,
		Code:     append([]wam.Instr(nil), mod.Code...),
		Switches: slices.Clip(mod.Switches),
		Procs:    mod.Procs,
		Order:    mod.Order,
	}
	stats := &Stats{Specialized: make(map[string]int)}
	nv := domain.MkLeaf(domain.NV)
	for _, fn := range mod.Order {
		proc := mod.Procs[fn]
		call := res.CallFor(fn)
		if call == nil || fn.Arity == 0 {
			continue
		}
		// Argument registers proven non-variable at every call.
		nvArgs := make(map[int]bool)
		for i, a := range call.Args {
			if domain.Leq(mod.Tab, a, nv) {
				nvArgs[i+1] = true
			}
		}
		if len(nvArgs) == 0 {
			continue
		}
		touched := false
		for _, clauseAddr := range proc.Clauses {
			if specializeClause(out, clauseAddr, fn, nvArgs, stats) {
				touched = true
			}
		}
		if touched {
			stats.PredsTouched++
		}
	}
	return out, stats
}

// Reachability reports which predicates the analysis proved reachable
// from the entry point, and which of those can ever succeed. Predicates
// outside Reached are dead code under the analyzed entry; predicates in
// Reached but not in Succeeds always fail.
type Reachability struct {
	Reached  map[term.Functor]bool
	Succeeds map[term.Functor]bool
}

// Reach computes reachability from an analysis result.
func Reach(res *core.Result) Reachability {
	r := Reachability{
		Reached:  make(map[term.Functor]bool),
		Succeeds: make(map[term.Functor]bool),
	}
	for _, e := range res.Entries {
		r.Reached[e.CP.Fn] = true
		if e.Succ != nil {
			r.Succeeds[e.CP.Fn] = true
		}
	}
	return r
}

// StripUnreachable returns a copy of mod containing only the predicates
// the analysis reached. Calls to stripped predicates (which the analysis
// proved unreachable) are unlinked so they fail if ever taken. The code
// array keeps its addresses (stripping rewrites the procedure map, not
// the layout), so the module stays consistent.
func StripUnreachable(mod *wam.Module, res *core.Result) (*wam.Module, []term.Functor) {
	reach := Reach(res)
	out := &wam.Module{
		Tab:      mod.Tab,
		Code:     append([]wam.Instr(nil), mod.Code...),
		Switches: slices.Clip(mod.Switches),
		Procs:    make(map[term.Functor]*wam.Proc),
	}
	var removed []term.Functor
	for _, fn := range mod.Order {
		if reach.Reached[fn] {
			out.Procs[fn] = mod.Procs[fn]
			out.Order = append(out.Order, fn)
		} else {
			removed = append(removed, fn)
		}
	}
	// Unlink calls to removed predicates.
	for i := range out.Code {
		ins := &out.Code[i]
		if ins.Op == wam.OpCall || ins.Op == wam.OpExecute {
			if _, ok := out.Procs[ins.Fn]; !ok && mod.Procs[ins.Fn] != nil {
				ins.L = wam.FailAddr
			}
		}
	}
	return out, removed
}

// specializeClause rewrites the head get instructions of one clause. It
// scans from the clause start through the get/unify prefix; argument
// registers stay valid until the body's put instructions begin.
func specializeClause(mod *wam.Module, addr int, fn term.Functor, nvArgs map[int]bool, stats *Stats) bool {
	touched := false
	for p := addr; p < len(mod.Code); p++ {
		ins := mod.Code[p]
		switch ins.Op {
		case wam.OpAllocate, wam.OpGetLevel, wam.OpNeckCut:
			continue
		case wam.OpGetVarX, wam.OpGetVarY, wam.OpGetValX, wam.OpGetValY,
			wam.OpUnifyVarX, wam.OpUnifyVarY, wam.OpUnifyValX, wam.OpUnifyValY,
			wam.OpUnifyConst, wam.OpUnifyInt, wam.OpUnifyNil, wam.OpUnifyVoid:
			continue
		case wam.OpGetConst, wam.OpGetInt, wam.OpGetNil, wam.OpGetList, wam.OpGetStruct:
			// Only original argument registers (<= arity) carry the
			// analyzed call modes; temporaries holding subterms do not.
			if ins.A1 > fn.Arity || !nvArgs[ins.A1] {
				continue
			}
			var newOp wam.Op
			switch ins.Op {
			case wam.OpGetConst:
				newOp = wam.OpGetConstCmp
			case wam.OpGetInt:
				newOp = wam.OpGetIntCmp
			case wam.OpGetNil:
				newOp = wam.OpGetNilCmp
			case wam.OpGetList:
				newOp = wam.OpGetListRead
			case wam.OpGetStruct:
				newOp = wam.OpGetStructRead
			}
			stats.Specialized[mod.DisasmInstr(wam.Instr{Op: ins.Op, A1: ins.A1, Fn: ins.Fn, I: ins.I})]++
			stats.Total++
			mod.Code[p].Op = newOp
			touched = true
		default:
			// First body/control instruction: the head prefix is over.
			return touched
		}
	}
	return touched
}
