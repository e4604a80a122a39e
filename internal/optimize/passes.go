package optimize

import (
	"fmt"

	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
	"awam/internal/wam"
)

// specializePass ports Specialize into the pipeline: head unification
// instructions on arguments the analysis proves non-variable are
// replaced by read-only variants.
type specializePass struct{}

func (specializePass) Name() string { return "specialize" }

func (specializePass) Apply(mod *wam.Module, res *core.Result) (*wam.Module, PassStats, error) {
	out, st := Specialize(mod, res)
	ps := PassStats{PredsTouched: st.PredsTouched}
	for kind, n := range st.Specialized {
		ps.note(kind, n)
	}
	return out, ps, nil
}

// stripPass ports StripUnreachable: predicates the analysis never
// reached are dropped from the procedure map and calls to them are
// unlinked (they fail if ever taken).
type stripPass struct{}

func (stripPass) Name() string { return "strip-unreachable" }

func (stripPass) Apply(mod *wam.Module, res *core.Result) (*wam.Module, PassStats, error) {
	out, removed := StripUnreachable(mod, res)
	var ps PassStats
	for _, fn := range removed {
		if p := mod.Procs[fn]; p != nil {
			ps.ClauseDelta -= len(p.Clauses)
		}
	}
	ps.note("stripped predicate", len(removed))
	ps.PredsTouched = len(removed)
	return out, ps, nil
}

// deadClausePass drops clauses that cannot head-match any calling
// pattern the analysis recorded, and — when a single clause survives —
// retargets the predicate entry straight at that clause, eliminating
// its choice point entirely (the determinacy optimization the paper's
// introduction motivates). The rebuilt dispatch is appended to the code
// array; existing chains are never patched in place.
//
// The transformation is justified by the analysis contract: recorded
// calling patterns over-approximate every concrete call reachable from
// the analyzed entry points, and a clause whose head prefix fails
// abstractly against a pattern fails concretely against every instance
// of it. Goals outside that contract (a fresh query against a predicate
// the entry never calls that way) may observe the difference — which is
// exactly what the differential gate checks.
type deadClausePass struct{}

func (deadClausePass) Name() string { return "dead-clause" }

func (deadClausePass) Apply(mod *wam.Module, res *core.Result) (*wam.Module, PassStats, error) {
	matches := core.New(mod).ClauseMatches(res)
	out := mod.Clone()
	var ps PassStats
	for _, fn := range mod.Order {
		marks := matches[fn]
		proc := out.Procs[fn]
		if marks == nil || proc == nil || len(marks) != len(proc.Clauses) {
			continue
		}
		var alive []int
		for i, ok := range marks {
			if ok {
				alive = append(alive, i)
			}
		}
		dead := len(proc.Clauses) - len(alive)
		if dead == 0 || len(alive) == 0 {
			// Nothing to drop, or every clause is dead: the calls fail
			// by themselves, no dispatch surgery needed.
			continue
		}
		if len(alive) > 1 && out.Code[proc.Entry].Op == wam.OpSwitchOnTerm {
			// The compiler already indexed this predicate; replacing the
			// switch with a shorter linear chain would trade dispatch
			// quality for clause count. Keep the switch.
			continue
		}
		addrs := make([]int, len(alive))
		clauses := make([]int, len(alive))
		envs := make([]int, len(alive))
		for j, i := range alive {
			addrs[j] = proc.Clauses[i]
			clauses[j] = proc.Clauses[i]
			if i < len(proc.EnvSizes) {
				envs[j] = proc.EnvSizes[i]
			}
		}
		entry := emitBlock(out, addrs)
		proc.Entry = entry
		proc.Clauses = clauses
		if len(proc.EnvSizes) > 0 {
			proc.EnvSizes = envs
		}
		retargetCalls(out, fn, entry)
		ps.note("dead clause", dead)
		if len(alive) == 1 {
			ps.note("choice point eliminated", 1)
		}
		ps.ClauseDelta -= dead
		ps.PredsTouched++
	}
	ps.InstrDelta = len(out.Code) - len(mod.Code)
	return out, ps, nil
}

// indexPass introduces first-argument indexing for predicates the
// compiler left unindexed (those with variable-headed clauses), when
// the analysis proves the first argument non-variable at every call.
// Each dispatch bucket holds the clauses whose first head argument can
// match that key — kind-matching clauses merged with the var-headed
// ones, in source order — and the new LD switch default routes absent
// keys to the var-headed clauses alone. The var branch of the emitted
// switch_on_term falls back to the original dispatch chain, so the
// transformation is semantics-preserving even if an unbound argument
// slips through; the analysis only directs where applying it pays.
type indexPass struct{}

func (indexPass) Name() string { return "index" }

// headArgKind classifies a clause's first head argument at the code
// level, mirroring the compiler's source-level firstArgKind.
type headArgKind uint8

const (
	headVar headArgKind = iota
	headConst
	headList
	headStruct
)

// clauseFirstArg scans a clause's head prefix for the get instruction
// on argument register 1. No such instruction (a void or repeated
// variable) classifies as headVar, which matches anything.
func clauseFirstArg(mod *wam.Module, addr int) (headArgKind, wam.ConstKey, term.Functor) {
	for p := addr; p < len(mod.Code); p++ {
		ins := mod.Code[p]
		switch ins.Op {
		case wam.OpNop, wam.OpAllocate, wam.OpGetLevel, wam.OpNeckCut,
			wam.OpUnifyVarX, wam.OpUnifyVarY, wam.OpUnifyValX, wam.OpUnifyValY,
			wam.OpUnifyConst, wam.OpUnifyInt, wam.OpUnifyNil, wam.OpUnifyVoid:
			continue
		case wam.OpGetVarX, wam.OpGetVarY, wam.OpGetValX, wam.OpGetValY:
			if ins.A1 == 1 {
				return headVar, wam.ConstKey{}, term.Functor{}
			}
		case wam.OpGetConst, wam.OpGetConstCmp:
			if ins.A1 == 1 {
				return headConst, wam.ConstKey{A: ins.Fn.Name}, term.Functor{}
			}
		case wam.OpGetInt, wam.OpGetIntCmp:
			if ins.A1 == 1 {
				return headConst, wam.ConstKey{IsInt: true, I: ins.I}, term.Functor{}
			}
		case wam.OpGetNil, wam.OpGetNilCmp:
			if ins.A1 == 1 {
				return headConst, wam.ConstKey{A: mod.Tab.Nil}, term.Functor{}
			}
		case wam.OpGetList, wam.OpGetListRead:
			if ins.A1 == 1 {
				return headList, wam.ConstKey{}, term.Functor{}
			}
		case wam.OpGetStruct, wam.OpGetStructRead:
			if ins.A1 == 1 {
				return headStruct, wam.ConstKey{}, ins.Fn
			}
		default:
			// First body/control instruction: argument 1 was never
			// constrained by the head.
			return headVar, wam.ConstKey{}, term.Functor{}
		}
	}
	return headVar, wam.ConstKey{}, term.Functor{}
}

func (indexPass) Apply(mod *wam.Module, res *core.Result) (*wam.Module, PassStats, error) {
	nv := domain.MkLeaf(domain.NV)
	out := mod.Clone()
	var ps PassStats
	for _, fn := range mod.Order {
		proc := out.Procs[fn]
		if fn.Arity == 0 || len(proc.Clauses) < 2 {
			continue
		}
		if out.Code[proc.Entry].Op == wam.OpSwitchOnTerm {
			continue // already indexed
		}
		call := res.CallFor(fn)
		if call == nil || len(call.Args) == 0 || !domain.Leq(mod.Tab, call.Args[0], nv) {
			// The analysis cannot prove the first argument bound; the
			// switch would route most calls through the var branch.
			continue
		}
		kinds := make([]headArgKind, len(proc.Clauses))
		cks := make([]wam.ConstKey, len(proc.Clauses))
		sfs := make([]term.Functor, len(proc.Clauses))
		nonVar := 0
		for i, addr := range proc.Clauses {
			kinds[i], cks[i], sfs[i] = clauseFirstArg(out, addr)
			if kinds[i] != headVar {
				nonVar++
			}
		}
		if nonVar == 0 {
			continue // no discrimination to gain
		}
		oldEntry := proc.Entry

		// Bucket clauses per key: matching kind merged with var-headed
		// clauses, preserving source order.
		var constOrder []wam.ConstKey
		seenConst := make(map[wam.ConstKey]bool)
		var structOrder []term.Functor
		seenStruct := make(map[term.Functor]bool)
		for i := range proc.Clauses {
			switch kinds[i] {
			case headConst:
				if !seenConst[cks[i]] {
					seenConst[cks[i]] = true
					constOrder = append(constOrder, cks[i])
				}
			case headStruct:
				if !seenStruct[sfs[i]] {
					seenStruct[sfs[i]] = true
					structOrder = append(structOrder, sfs[i])
				}
			}
		}
		collect := func(want func(i int) bool) []int {
			var addrs []int
			for i, addr := range proc.Clauses {
				if kinds[i] == headVar || want(i) {
					addrs = append(addrs, addr)
				}
			}
			return addrs
		}
		varOnly := collect(func(int) bool { return false })

		// Emit shared blocks: identical clause lists dispatch to one
		// block. emitBlock appends at the code end only.
		blocks := make(map[string]int)
		blockFor := func(addrs []int) int {
			key := fmt.Sprint(addrs)
			if b, ok := blocks[key]; ok {
				return b
			}
			b := emitBlock(out, addrs)
			blocks[key] = b
			return b
		}

		varBlock := blockFor(varOnly) // FailAddr when no var-headed clauses
		lc := varBlock
		if len(constOrder) > 0 {
			tbl := make(map[wam.ConstKey]int, len(constOrder))
			for _, ck := range constOrder {
				ckv := ck
				tbl[ck] = blockFor(collect(func(i int) bool { return kinds[i] == headConst && cks[i] == ckv }))
			}
			ld := 0
			if varBlock != wam.FailAddr {
				ld = varBlock
			}
			lc = out.EmitSwitch(wam.OpSwitchOnConst, wam.Switch{TblC: tbl, LD: ld})
		}
		ll := blockFor(collect(func(i int) bool { return kinds[i] == headList }))
		ls := varBlock
		if len(structOrder) > 0 {
			tbl := make(map[term.Functor]int, len(structOrder))
			for _, sf := range structOrder {
				sfv := sf
				tbl[sf] = blockFor(collect(func(i int) bool { return kinds[i] == headStruct && sfs[i] == sfv }))
			}
			ld := 0
			if varBlock != wam.FailAddr {
				ld = varBlock
			}
			ls = out.EmitSwitch(wam.OpSwitchOnStruct, wam.Switch{TblS: tbl, LD: ld})
		}
		sw := out.EmitSwitch(wam.OpSwitchOnTerm, wam.Switch{LV: oldEntry, LC: lc, LL: ll, LS: ls})
		proc.Entry = sw
		retargetCalls(out, fn, sw)
		ps.note("indexed predicate", 1)
		ps.PredsTouched++
	}
	ps.InstrDelta = len(out.Code) - len(mod.Code)
	return out, ps, nil
}
