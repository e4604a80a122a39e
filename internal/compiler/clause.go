package compiler

import (
	"fmt"

	"awam/internal/term"
	"awam/internal/wam"
)

// bodyItem is one step of a clause body after preprocessing: a user call,
// an inline builtin, or a cut.
type bodyItem struct {
	goal    *term.Term
	builtin wam.BuiltinID
	isCall  bool
	isCut   bool
}

// clauseCtx carries per-clause compilation state.
type clauseCtx struct {
	c     *Compiler
	occ   map[*term.VarRef]int // total occurrences in the clause
	perm  map[*term.VarRef]int // permanent variables -> Y slot
	temp  map[*term.VarRef]int // temporary variables -> X register
	seen  map[*term.VarRef]bool
	nextX int
	// cutY is the Y slot holding the cut barrier, -1 when unused.
	cutY int
}

// compileClause emits code for one clause and returns its environment
// size (0 when the clause does not allocate).
func (c *Compiler) compileClause(cl term.Clause) (int, error) {
	items, err := c.preprocessBody(cl.Body)
	if err != nil {
		return 0, err
	}

	ctx := &clauseCtx{
		c:    c,
		occ:  make(map[*term.VarRef]int),
		perm: make(map[*term.VarRef]int),
		temp: make(map[*term.VarRef]int),
		seen: make(map[*term.VarRef]bool),
		cutY: -1,
	}
	countOcc(cl.Head, ctx.occ)
	for _, it := range items {
		if it.goal != nil {
			countOcc(it.goal, ctx.occ)
		}
	}

	// Permanent variables: those occurring in more than one region, where
	// the head shares the first real goal's region.
	region := make(map[*term.VarRef]int)
	multi := make(map[*term.VarRef]bool)
	assignRegion := func(tm *term.Term, r int) {
		forEachVar(tm, func(v *term.VarRef) {
			if prev, ok := region[v]; ok && prev != r {
				multi[v] = true
			}
			region[v] = r
		})
	}
	assignRegion(cl.Head, 0)
	r := 0
	for _, it := range items {
		if it.isCut || it.goal == nil {
			continue
		}
		assignRegion(it.goal, r)
		r++
	}

	// Allocate Y slots in first-occurrence order for determinism.
	var orderVars []*term.VarRef
	collect := func(tm *term.Term) {
		forEachVar(tm, func(v *term.VarRef) {
			if multi[v] {
				if _, ok := ctx.perm[v]; !ok {
					ctx.perm[v] = len(orderVars)
					orderVars = append(orderVars, v)
				}
			}
		})
	}
	collect(cl.Head)
	for _, it := range items {
		if it.goal != nil {
			collect(it.goal)
		}
	}

	// Deep cut: a cut appearing after at least one call/builtin region.
	deepCut := false
	seenGoal := false
	for _, it := range items {
		if it.isCut && seenGoal {
			deepCut = true
		}
		if !it.isCut {
			seenGoal = true
		}
	}

	envSize := len(ctx.perm)
	if deepCut {
		ctx.cutY = envSize
		envSize++
	}
	nGoals := 0
	nCalls := 0
	for _, it := range items {
		if !it.isCut {
			nGoals++
			if it.isCall {
				nCalls++
			}
		}
	}
	hasEnv := envSize > 0 || nGoals >= 2

	// Register numbering: argument registers are X1..Xarity for the head
	// and every body goal; temporaries live above all of them.
	maxArity := headArity(cl.Head)
	for _, it := range items {
		if it.goal != nil && it.goal.Kind == term.KStruct {
			if a := len(it.goal.Args); a > maxArity {
				maxArity = a
			}
		}
	}
	ctx.nextX = maxArity + 1

	if hasEnv {
		c.emit(wam.Instr{Op: wam.OpAllocate, A2: envSize})
		if deepCut {
			c.emit(wam.Instr{Op: wam.OpGetLevel, A2: ctx.cutY})
		}
	}

	ctx.compileHead(cl.Head)

	// Body emission.
	lastCallIdx := -1
	for i, it := range items {
		if it.isCall && i == len(items)-1 {
			lastCallIdx = i
		}
	}
	calledYet := false
	for i, it := range items {
		switch {
		case it.isCut:
			if !calledYet {
				c.emit(wam.Instr{Op: wam.OpNeckCut})
			} else {
				c.emit(wam.Instr{Op: wam.OpCutTo, A2: ctx.cutY})
			}
		case it.isCall:
			ctx.compileGoalArgs(it.goal)
			fn, _ := term.Indicator(it.goal)
			if i == lastCallIdx {
				if hasEnv {
					c.emit(wam.Instr{Op: wam.OpDeallocate})
				}
				addr := c.emit(wam.Instr{Op: wam.OpExecute, Fn: fn})
				c.fixups = append(c.fixups, fixup{addr: addr, fn: fn})
				return ctx.finish(envSize)
			}
			addr := c.emit(wam.Instr{Op: wam.OpCall, Fn: fn})
			c.fixups = append(c.fixups, fixup{addr: addr, fn: fn})
			calledYet = true
		default: // builtin
			ctx.compileGoalArgs(it.goal)
			c.emit(wam.Instr{Op: wam.OpBuiltin, A1: int(it.builtin), A2: goalArity(it.goal)})
		}
	}
	if hasEnv {
		c.emit(wam.Instr{Op: wam.OpDeallocate})
	}
	c.emit(wam.Instr{Op: wam.OpProceed})
	return ctx.finish(envSize)
}

// finish checks the clause's register operands against wam.MaxRegister
// and returns its environment size. Argument registers sit below the
// temporaries, so the highest X operand is nextX-1; Y operands and the
// cut slot sit below envSize.
func (ctx *clauseCtx) finish(envSize int) (int, error) {
	if top := max(ctx.nextX-1, envSize); top > wam.MaxRegister {
		return 0, fmt.Errorf("%w: it needs register %d, the limit is %d",
			ErrRegisterLimit, top, wam.MaxRegister)
	}
	return envSize, nil
}

// preprocessBody classifies goals, drops 'true', and rejects constructs
// outside the compiled subset.
func (c *Compiler) preprocessBody(body []*term.Term) ([]bodyItem, error) {
	var items []bodyItem
	for _, g := range body {
		fn, ok := term.Indicator(g)
		if !ok {
			return nil, fmt.Errorf("compiler: body goal %s is not callable", c.tab.Write(g))
		}
		switch {
		case fn.Name == c.tab.Cut && fn.Arity == 0:
			items = append(items, bodyItem{isCut: true})
		case fn.Name == c.tab.True && fn.Arity == 0:
			// no code
		case fn.Name == c.tab.Intern(";") && fn.Arity == 2,
			fn.Name == c.tab.Intern("->") && fn.Arity == 2,
			fn.Name == c.tab.Intern("\\+") && fn.Arity == 1:
			return nil, fmt.Errorf("compiler: control construct %s unsupported (define an auxiliary predicate)", c.tab.FuncString(fn))
		default:
			if id, isBI := c.builtins[fn]; isBI {
				items = append(items, bodyItem{goal: g, builtin: id})
			} else {
				items = append(items, bodyItem{goal: g, isCall: true})
			}
		}
	}
	return items, nil
}

func countOcc(tm *term.Term, occ map[*term.VarRef]int) {
	forEachVar(tm, func(v *term.VarRef) { occ[v]++ })
}

func forEachVar(tm *term.Term, f func(*term.VarRef)) {
	switch tm.Kind {
	case term.KVar:
		f(tm.Ref)
	case term.KStruct:
		for _, a := range tm.Args {
			forEachVar(a, f)
		}
	}
}

func headArity(h *term.Term) int {
	if h.Kind == term.KStruct {
		return len(h.Args)
	}
	return 0
}

func goalArity(g *term.Term) int {
	if g.Kind == term.KStruct {
		return len(g.Args)
	}
	return 0
}

// --- head compilation (get/unify, breadth-first) ---

// pendingSub is a queued nested subterm: the structure in register reg
// still needs its get+unify sequence.
type pendingSub struct {
	reg int
	tm  *term.Term
}

func (ctx *clauseCtx) compileHead(h *term.Term) {
	if h.Kind != term.KStruct {
		return // arity-0 head: nothing to unify
	}
	var queue []pendingSub
	for i, arg := range h.Args {
		ai := i + 1
		switch arg.Kind {
		case term.KVar:
			ctx.emitHeadVar(arg.Ref, ai)
		case term.KInt:
			ctx.c.emit(wam.Instr{Op: wam.OpGetInt, A1: ai, I: arg.Int})
		case term.KAtom:
			if arg.Fn.Name == ctx.c.tab.Nil {
				ctx.c.emit(wam.Instr{Op: wam.OpGetNil, A1: ai})
			} else {
				ctx.c.emit(wam.Instr{Op: wam.OpGetConst, A1: ai, Fn: arg.Fn})
			}
		case term.KStruct:
			queue = ctx.emitGetStruct(ai, arg, queue)
		}
	}
	// Breadth-first processing of nested structures (Figure 2 order).
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		queue = ctx.emitGetStruct(p.reg, p.tm, queue)
	}
}

// emitGetStruct emits get_list/get_structure for tm against register reg
// followed by its unify sequence, queuing nested structures.
func (ctx *clauseCtx) emitGetStruct(reg int, tm *term.Term, queue []pendingSub) []pendingSub {
	if ctx.c.tab.IsCons(tm) {
		ctx.c.emit(wam.Instr{Op: wam.OpGetList, A1: reg})
	} else {
		ctx.c.emit(wam.Instr{Op: wam.OpGetStruct, A1: reg, Fn: tm.Fn})
	}
	return ctx.emitUnifySeq(tm.Args, queue)
}

// emitUnifySeq emits the unify instructions for the immediate subterms.
func (ctx *clauseCtx) emitUnifySeq(args []*term.Term, queue []pendingSub) []pendingSub {
	for _, sub := range args {
		switch sub.Kind {
		case term.KVar:
			ctx.emitUnifyVar(sub.Ref)
		case term.KInt:
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyInt, I: sub.Int})
		case term.KAtom:
			if sub.Fn.Name == ctx.c.tab.Nil {
				ctx.c.emit(wam.Instr{Op: wam.OpUnifyNil})
			} else {
				ctx.c.emit(wam.Instr{Op: wam.OpUnifyConst, Fn: sub.Fn})
			}
		case term.KStruct:
			x := ctx.nextX
			ctx.nextX++
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyVarX, A2: x})
			queue = append(queue, pendingSub{reg: x, tm: sub})
		}
	}
	return queue
}

func (ctx *clauseCtx) emitHeadVar(v *term.VarRef, ai int) {
	if ctx.occ[v] == 1 {
		return // void: the argument register already holds the value
	}
	if ctx.seen[v] {
		if y, ok := ctx.perm[v]; ok {
			ctx.c.emit(wam.Instr{Op: wam.OpGetValY, A1: ai, A2: y})
		} else {
			ctx.c.emit(wam.Instr{Op: wam.OpGetValX, A1: ai, A2: ctx.temp[v]})
		}
		return
	}
	ctx.seen[v] = true
	if y, ok := ctx.perm[v]; ok {
		ctx.c.emit(wam.Instr{Op: wam.OpGetVarY, A1: ai, A2: y})
		return
	}
	x := ctx.nextX
	ctx.nextX++
	ctx.temp[v] = x
	ctx.c.emit(wam.Instr{Op: wam.OpGetVarX, A1: ai, A2: x})
}

func (ctx *clauseCtx) emitUnifyVar(v *term.VarRef) {
	if ctx.occ[v] == 1 {
		ctx.c.emit(wam.Instr{Op: wam.OpUnifyVoid, A2: 1})
		return
	}
	if ctx.seen[v] {
		if y, ok := ctx.perm[v]; ok {
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyValY, A2: y})
		} else {
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyValX, A2: ctx.temp[v]})
		}
		return
	}
	ctx.seen[v] = true
	if y, ok := ctx.perm[v]; ok {
		ctx.c.emit(wam.Instr{Op: wam.OpUnifyVarY, A2: y})
		return
	}
	x := ctx.nextX
	ctx.nextX++
	ctx.temp[v] = x
	ctx.c.emit(wam.Instr{Op: wam.OpUnifyVarX, A2: x})
}

// --- body compilation (put/unify, bottom-up) ---

// compileGoalArgs loads the goal's arguments into A1..An.
func (ctx *clauseCtx) compileGoalArgs(g *term.Term) {
	if g.Kind != term.KStruct {
		return
	}
	for i, arg := range g.Args {
		ctx.emitPutArg(arg, i+1)
	}
}

func (ctx *clauseCtx) emitPutArg(arg *term.Term, ai int) {
	switch arg.Kind {
	case term.KVar:
		ctx.emitPutVar(arg.Ref, ai)
	case term.KInt:
		ctx.c.emit(wam.Instr{Op: wam.OpPutInt, A1: ai, I: arg.Int})
	case term.KAtom:
		if arg.Fn.Name == ctx.c.tab.Nil {
			ctx.c.emit(wam.Instr{Op: wam.OpPutNil, A1: ai})
		} else {
			ctx.c.emit(wam.Instr{Op: wam.OpPutConst, A1: ai, Fn: arg.Fn})
		}
	case term.KStruct:
		// Build nested structures into temporaries first (bottom-up),
		// then the outer structure into the argument register.
		built := ctx.buildNested(arg)
		ctx.emitPutStruct(arg, ai, built)
	}
}

// buildNested compiles every proper nested structure of tm (but not tm
// itself) into temporaries, innermost first, returning their registers.
func (ctx *clauseCtx) buildNested(tm *term.Term) map[*term.Term]int {
	built := make(map[*term.Term]int)
	var build func(sub *term.Term) int
	build = func(sub *term.Term) int {
		for _, a := range sub.Args {
			if a.Kind == term.KStruct {
				built[a] = build(a)
			}
		}
		x := ctx.nextX
		ctx.nextX++
		ctx.emitPutStruct(sub, x, built)
		return x
	}
	for _, a := range tm.Args {
		if a.Kind == term.KStruct {
			built[a] = build(a)
		}
	}
	return built
}

// emitPutStruct emits put_list/put_structure for tm into register reg,
// with unify instructions for its immediate subterms. Nested structures
// must already be in built.
func (ctx *clauseCtx) emitPutStruct(tm *term.Term, reg int, built map[*term.Term]int) {
	if ctx.c.tab.IsCons(tm) {
		ctx.c.emit(wam.Instr{Op: wam.OpPutList, A1: reg})
	} else {
		ctx.c.emit(wam.Instr{Op: wam.OpPutStruct, A1: reg, Fn: tm.Fn})
	}
	for _, sub := range tm.Args {
		switch sub.Kind {
		case term.KVar:
			ctx.emitUnifyVar(sub.Ref)
		case term.KInt:
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyInt, I: sub.Int})
		case term.KAtom:
			if sub.Fn.Name == ctx.c.tab.Nil {
				ctx.c.emit(wam.Instr{Op: wam.OpUnifyNil})
			} else {
				ctx.c.emit(wam.Instr{Op: wam.OpUnifyConst, Fn: sub.Fn})
			}
		case term.KStruct:
			ctx.c.emit(wam.Instr{Op: wam.OpUnifyValX, A2: built[sub]})
		}
	}
}

func (ctx *clauseCtx) emitPutVar(v *term.VarRef, ai int) {
	if ctx.occ[v] == 1 {
		// Anonymous: fresh cell, no need to remember the register.
		x := ctx.nextX
		ctx.nextX++
		ctx.c.emit(wam.Instr{Op: wam.OpPutVarX, A1: ai, A2: x})
		return
	}
	if ctx.seen[v] {
		if y, ok := ctx.perm[v]; ok {
			ctx.c.emit(wam.Instr{Op: wam.OpPutValY, A1: ai, A2: y})
		} else {
			ctx.c.emit(wam.Instr{Op: wam.OpPutValX, A1: ai, A2: ctx.temp[v]})
		}
		return
	}
	ctx.seen[v] = true
	if y, ok := ctx.perm[v]; ok {
		ctx.c.emit(wam.Instr{Op: wam.OpPutVarY, A1: ai, A2: y})
		return
	}
	x := ctx.nextX
	ctx.nextX++
	ctx.temp[v] = x
	ctx.c.emit(wam.Instr{Op: wam.OpPutVarX, A1: ai, A2: x})
}
