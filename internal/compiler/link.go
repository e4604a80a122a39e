package compiler

import (
	"fmt"

	"awam/internal/term"
	"awam/internal/wam"
)

// Base is a module together with the expanded program it was compiled
// from, whose procedures Link may copy instead of compiling again. The
// zero Base offers none.
type Base struct {
	Mod  *wam.Module
	Prog *term.Program
}

// Link compiles the expanded program prog into a module, laid out in
// prog.Order. A predicate whose clauses are, clause by clause and goal
// by goal, the same term objects that base.Prog gave it is copied from
// base.Mod instead: its code is relocated to its new address, its
// switch entries to their new indices, and its calls are resolved
// against the new module like those of compiled predicates. The code a
// predicate compiles to depends only on its own clauses, and terms are
// never mutated, so the module equals a compilation of prog from
// scratch; errors are those compilation reports first, in prog.Order.
// base.Mod must have been compiled by Link with the same options.
// copied reports, indexed like the module's Order, which predicates
// were copied from base.
func Link(tab *term.Tab, prog *term.Program, base Base, opts Options) (mod *wam.Module, copied []bool, err error) {
	c := &Compiler{
		tab:      tab,
		opts:     opts,
		builtins: wam.Builtins(tab),
		mod: &wam.Module{
			Tab:   tab,
			Procs: make(map[term.Functor]*wam.Proc, len(prog.Order)),
		},
	}
	reused := make([]*wam.Proc, len(prog.Order))
	copied = make([]bool, len(prog.Order))
	size := 0
	for i, f := range prog.Order {
		if bp := base.proc(prog, f); bp != nil {
			reused[i], copied[i] = bp, true
			size += bp.Profile.Instructions
		} else {
			size += procBound(prog, f)
		}
	}
	c.mod.Code = make([]wam.Instr, 0, size)
	for i, f := range prog.Order {
		if _, isBI := c.builtins[f]; isBI {
			return nil, nil, fmt.Errorf("compiler: cannot redefine builtin %s", tab.FuncString(f))
		}
		if bp := reused[i]; bp != nil {
			c.copyProc(base.Mod, bp)
			continue
		}
		if err := c.compileProc(f, prog.ClausesOf(f)); err != nil {
			return nil, nil, err
		}
	}
	c.resolveFixups()
	return c.mod, copied, nil
}

// proc returns base's procedure for f when prog gives f exactly the
// clause objects base.Prog gave it, else nil.
func (b Base) proc(prog *term.Program, f term.Functor) *wam.Proc {
	if b.Prog == nil {
		return nil
	}
	idx, bidx := prog.Preds[f], b.Prog.Preds[f]
	if len(idx) != len(bidx) {
		return nil
	}
	for i, j := range idx {
		cl, bc := &prog.Clauses[j], &b.Prog.Clauses[bidx[i]]
		if cl.Head != bc.Head || len(cl.Body) != len(bc.Body) {
			return nil
		}
		for k, g := range cl.Body {
			if g != bc.Body[k] {
				return nil
			}
		}
	}
	return b.Mod.Procs[f]
}

// copyProc appends base's procedure bp at the end of the module. A
// compiled procedure is contiguous from its entry, its switch entries
// were emitted in code order, and every address it holds points inside
// it, so relocation adds one displacement to each code address and
// renumbers the switches in order. Its calls join the fixups.
func (c *Compiler) copyProc(base *wam.Module, bp *wam.Proc) {
	start := bp.Entry
	delta := c.here() - start
	proc := &wam.Proc{
		Fn:       bp.Fn,
		Entry:    bp.Entry + delta,
		Clauses:  make([]int, len(bp.Clauses)),
		EnvSizes: append([]int(nil), bp.EnvSizes...),
		Profile:  bp.Profile,
	}
	for i, a := range bp.Clauses {
		proc.Clauses[i] = a + delta
	}
	c.mod.Procs[bp.Fn] = proc
	c.mod.Order = append(c.mod.Order, bp.Fn)
	for _, ins := range base.Code[start : start+bp.Profile.Instructions] {
		switch ins.Op {
		case wam.OpTryMeElse, wam.OpRetryMeElse, wam.OpTry, wam.OpRetry, wam.OpTrust:
			ins.L += delta
		case wam.OpCall, wam.OpExecute:
			c.fixups = append(c.fixups, fixup{addr: c.here(), fn: ins.Fn})
		case wam.OpSwitchOnTerm, wam.OpSwitchOnConst, wam.OpSwitchOnStruct:
			sw := relocate(*base.Switch(ins), delta)
			c.mod.Switches = append(c.mod.Switches, sw)
			ins.L = len(c.mod.Switches) - 1
		}
		c.mod.Code = append(c.mod.Code, ins)
	}
}

// relocate moves a switch's targets by delta. Unmoved switches keep
// sharing their dispatch tables, which are never edited in place.
func relocate(sw wam.Switch, delta int) wam.Switch {
	if delta == 0 {
		return sw
	}
	at := func(a int) int {
		if a == wam.FailAddr {
			return a
		}
		return a + delta
	}
	sw.LV, sw.LC, sw.LL, sw.LS = at(sw.LV), at(sw.LC), at(sw.LL), at(sw.LS)
	if sw.LD != 0 {
		sw.LD += delta
	}
	if sw.TblC != nil {
		tbl := make(map[wam.ConstKey]int, len(sw.TblC))
		for k, a := range sw.TblC {
			tbl[k] = at(a)
		}
		sw.TblC = tbl
	}
	if sw.TblS != nil {
		tbl := make(map[term.Functor]int, len(sw.TblS))
		for k, a := range sw.TblS {
			tbl[k] = at(a)
		}
		sw.TblS = tbl
	}
	return sw
}
