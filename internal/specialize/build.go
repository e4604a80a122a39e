package specialize

import (
	"awam/internal/rt"
	"awam/internal/term"
	"awam/internal/wam"
)

// maxTrackRegs bounds the static-call simulation's register file;
// clauses using higher registers simply get no static call sites.
const maxTrackRegs = 128

// Build specializes a compiled module into per-component transfer
// streams. comps is the module's condensation (e.g. the SCC plan's
// member lists, in topological order); nil means one singleton
// component per predicate in definition order. prof drives fusion
// selection (StaticProfile(mod) when no measured histogram exists).
//
// Build itself does only the cheap whole-program work: component
// membership, the clause-address → Loc map with each component's
// clause numbering, and each component's fusion mask. A component's
// clauses are translated, and its call sites resolved, when the
// component is first executed (Program.Comp), so an analysis that
// explores a small cone of a large program — a warm incremental run —
// translates only that cone. Translation is deterministic and per
// component, so the streams do not depend on which analysis, or which
// of several concurrent ones, translates first.
//
// Build is total: every clause of every listed predicate gets a
// stream. Code the translator cannot prove straight-line (a choice or
// indexing opcode in a clause body, a register operand above 16 bits,
// a clause that runs off the end of the code) becomes a trap word,
// which fails the analysis only if it is executed. With comps nil,
// prof nil and zero Options, Build yields the plain stream: one word
// per wam instruction.
func Build(mod *wam.Module, comps [][]term.Functor, prof *Profile, opts Options) *Program {
	var total int64
	if prof != nil {
		total = prof.totalPredSteps()
	}
	return build(mod, comps, nil, opts, func(members []term.Functor) uint32 {
		return enabledMask(prof, total, members, opts)
	})
}

// BuildStatic is Build over StaticProfile(mod), with comps given as a
// condensation (inc.Condensation): its components' members, and
// compOf, the index of each member's component, which the program
// shares. The program remembers the profile's opcode histogram and
// total weight, from which Derive works out the profile of a module
// linked from mod.
func BuildStatic(mod *wam.Module, comps [][]term.Functor, compOf map[term.Functor]int, opts Options) *Program {
	prof := StaticProfile(mod)
	total := prof.totalPredSteps()
	p := build(mod, comps, compOf, opts, func(members []term.Functor) uint32 {
		return enabledMask(prof, total, members, opts)
	})
	p.static = &staticTotals{opcodes: prof.Opcodes, total: total}
	return p
}

// staticTotals is what BuildStatic keeps of the static profile.
type staticTotals struct {
	opcodes [wam.NumOps]int64
	total   int64
}

// Derive returns BuildStatic(mod, comps, compOf, p.Opts) for a module
// mod linked from p's module, where base maps each of comps to the
// component of p with the same members and the same code, or -1 (an
// inc.Condensation's Base). p must come from BuildStatic or Derive.
//
// Only the changed components are read: the static profile of mod is
// p's with the opcodes and weights of p's components that no component
// maps to taken out and those of the unmapped components of comps put
// in. A component's fusion mask depends on the module's opcode
// histogram and total weight, so a kept component gets the mask the
// new totals give it, which is its old one unless the edit moved it
// across the hotness threshold or changed which fusion kinds occur.
func (p *Program) Derive(mod *wam.Module, comps [][]term.Functor, compOf map[term.Functor]int, base []int) *Program {
	st := *p.static
	mapped := make([]bool, len(p.Comps))
	for _, k := range base {
		if k >= 0 {
			mapped[k] = true
		}
	}
	for k, cs := range p.Comps {
		if !mapped[k] {
			st.add(p.mod, cs.Members, -1)
		}
	}
	for i, members := range comps {
		if base[i] < 0 {
			st.add(mod, members, 1)
		}
	}
	prof := &Profile{Opcodes: st.opcodes}
	out := build(mod, comps, compOf, p.Opts, func(members []term.Functor) uint32 {
		var mine int64
		for _, fn := range members {
			mine += staticWeight(mod.Proc(fn))
		}
		return fusionMask(prof, st.total, mine, p.Opts)
	})
	out.static = &st
	return out
}

// add adds (sign 1) or takes out (sign -1) the static profile of the
// given predicates of mod.
func (st *staticTotals) add(mod *wam.Module, members []term.Functor, sign int64) {
	for _, fn := range members {
		proc := mod.Proc(fn)
		if proc == nil {
			continue
		}
		st.total += sign * staticWeight(proc)
		for _, ins := range mod.Code[proc.Entry : proc.Entry+proc.Profile.Instructions] {
			st.opcodes[ins.Op] += sign
		}
	}
}

// build lays out the program's components: membership (compOf, built
// here when nil), the clause address map with each component's clause
// numbering, and each component's fusion mask from mask.
func build(mod *wam.Module, comps [][]term.Functor, compOf map[term.Functor]int, opts Options, mask func([]term.Functor) uint32) *Program {
	if comps == nil {
		comps = make([][]term.Functor, 0, len(mod.Order))
		for _, fn := range mod.Order {
			comps = append(comps, []term.Functor{fn})
		}
	}
	prog := &Program{
		Opts:   opts,
		Comps:  make([]*CompStream, len(comps)),
		mod:    mod,
		compOf: compOf,
		locs:   make([]Loc, len(mod.Code)),
	}
	for i := range prog.locs {
		prog.locs[i] = Loc{Comp: -1, Clause: -1}
	}
	if compOf == nil {
		prog.compOf = make(map[term.Functor]int, len(mod.Order))
		for ci, members := range comps {
			for _, fn := range members {
				prog.compOf[fn] = ci
			}
		}
	}
	for ci, members := range comps {
		cs := &CompStream{
			Index:      ci,
			Members:    members,
			FusionMask: mask(members),
		}
		for _, fn := range members {
			proc := mod.Proc(fn)
			if proc == nil {
				continue
			}
			for _, addr := range proc.Clauses {
				if prog.locs[addr].Comp >= 0 {
					continue // shared clause address already numbered
				}
				prog.locs[addr] = Loc{Comp: int32(ci), Clause: int32(len(cs.pending))}
				cs.pending = append(cs.pending, clauseRef{fn: fn, addr: addr})
			}
		}
		prog.Comps[ci] = cs
	}
	return prog
}

// clauseRef names one clause a component has yet to translate.
type clauseRef struct {
	fn   term.Functor
	addr int
}

// translate fills cs's stream, pools and clause table from its pending
// clauses, resolving each call site against the program's eagerly built
// membership and clause numbering.
func (p *Program) translate(cs *CompStream) {
	b := &builder{
		mod:     p.mod,
		opts:    p.Opts,
		cs:      cs,
		cellIdx: make(map[rt.Cell]int32),
		fnIdx:   make(map[term.Functor]int32),
	}
	cs.Clauses = make([]ClauseInfo, 0, len(cs.pending))
	for _, c := range cs.pending {
		cs.Clauses = append(cs.Clauses, b.translateClause(c.fn, c.addr))
	}
	cs.pending = nil
	for i := range cs.Calls {
		cr := &cs.Calls[i]
		if ci, ok := p.compOf[cr.Fn]; ok {
			cr.Comp = int32(ci)
			if proc := p.mod.Proc(cr.Fn); proc != nil && len(proc.Clauses) > 0 {
				if loc := p.Loc(proc.Clauses[0]); loc.Comp == int32(ci) {
					cr.Clause0 = loc.Clause
				}
			}
		}
	}
}

type builder struct {
	mod  *wam.Module
	opts Options

	cs      *CompStream
	cellIdx map[rt.Cell]int32
	fnIdx   map[term.Functor]int32
}

func (b *builder) cell(c rt.Cell) int32 {
	if i, ok := b.cellIdx[c]; ok {
		return i
	}
	i := int32(len(b.cs.Cells))
	b.cs.Cells = append(b.cs.Cells, c)
	b.cellIdx[c] = i
	return i
}

func (b *builder) fn(f term.Functor) int32 {
	if i, ok := b.fnIdx[f]; ok {
		return i
	}
	i := int32(len(b.cs.Fns))
	b.cs.Fns = append(b.cs.Fns, f)
	b.fnIdx[f] = i
	return i
}

// unifyCtx tracks which anchor governs the current unify run during
// the static-call simulation: unify slots after a put build fresh
// structure (context-independent), after a get they bind incoming
// arguments (context-dependent).
type unifyCtx uint8

const (
	ctxGet unifyCtx = iota
	ctxPut
)

// translateClause compiles one clause into the current component
// stream: a straight-line walk from the clause address to its
// proceed/execute/halt. Anything else ends the clause with a trap word
// (see Build).
//
// Alongside translation it runs the static-call simulation: a register
// is static when its value was rebuilt in this clause from constants
// and fresh variables only, so the abstracted calling pattern at a
// call site whose arguments are all static is identical on every
// execution. Any call, execute or builtin poisons all registers (its
// success application may bind fresh variables reachable from them),
// and unify runs governed by a get poison the registers they write
// (they alias incoming subterms).
func (b *builder) translateClause(fn term.Functor, addr int) ClauseInfo {
	code := b.mod.Code
	var out []SInstr
	maxX := 0
	static := [maxTrackRegs]bool{}
	trackOK := true
	uctx := ctxGet

	poisonAll := func() {
		static = [maxTrackRegs]bool{}
	}
	setStatic := func(reg int, v bool) {
		if reg >= 0 && reg < maxTrackRegs {
			static[reg] = v
		} else if v {
			trackOK = false
		}
	}
	isStatic := func(reg int) bool {
		return trackOK && reg >= 0 && reg < maxTrackRegs && static[reg]
	}

	reg16 := func(n int) (uint16, bool) {
		if n < 0 || n > wam.MaxRegister {
			return 0, false
		}
		return uint16(n), true
	}
	trap := func(w wam.Op, reason uint16, p int) ClauseInfo {
		out = append(out, SInstr{Op: STrap, W: w, A: reason, K: int32(p)})
		return b.finishClause(fn, addr, out, maxX)
	}

	for p := addr; ; p++ {
		if p >= len(code) {
			return trap(wam.OpNop, TrapEnd, p)
		}
		ins := code[p]
		a1, ok1 := reg16(ins.A1)
		a2, ok2 := reg16(ins.A2)
		if !ok1 || !ok2 {
			return trap(ins.Op, TrapRegister, p)
		}
		maxX = max(maxX, ins.A1, ins.A2)
		w := ins.Op
		switch ins.Op {
		case wam.OpNop:
			out = append(out, SInstr{Op: SNop, W: w})

		case wam.OpGetVarX:
			out = append(out, SInstr{Op: SGetVarX, W: w, A: a1, B: a2})
			setStatic(ins.A2, false)
		case wam.OpGetVarY:
			out = append(out, SInstr{Op: SGetVarY, W: w, A: a1, B: a2})
		case wam.OpGetValX:
			out = append(out, SInstr{Op: SGetValX, W: w, A: a1, B: a2})
		case wam.OpGetValY:
			out = append(out, SInstr{Op: SGetValY, W: w, A: a1, B: a2})
		case wam.OpGetConst, wam.OpGetConstCmp:
			out = append(out, SInstr{Op: SGetCell, W: w, A: a1, K: b.cell(rt.MkCon(ins.Fn.Name))})
		case wam.OpGetInt, wam.OpGetIntCmp:
			out = append(out, SInstr{Op: SGetCell, W: w, A: a1, K: b.cell(rt.MkInt(ins.I))})
		case wam.OpGetNil, wam.OpGetNilCmp:
			out = append(out, SInstr{Op: SGetCell, W: w, A: a1, K: b.cell(rt.MkCon(b.mod.Tab.Nil))})
		case wam.OpGetList, wam.OpGetListRead:
			out = append(out, SInstr{Op: SGetList, W: w, A: a1})
			uctx = ctxGet
		case wam.OpGetStruct, wam.OpGetStructRead:
			out = append(out, SInstr{Op: SGetStruct, W: w, A: a1, K: b.fn(ins.Fn)})
			uctx = ctxGet

		case wam.OpPutVarX:
			out = append(out, SInstr{Op: SPutVarX, W: w, A: a1, B: a2})
			setStatic(ins.A1, true)
			setStatic(ins.A2, true)
		case wam.OpPutVarY:
			out = append(out, SInstr{Op: SPutVarY, W: w, A: a1, B: a2})
			setStatic(ins.A1, true)
		case wam.OpPutValX:
			out = append(out, SInstr{Op: SPutValX, W: w, A: a1, B: a2})
			setStatic(ins.A1, isStatic(ins.A2))
		case wam.OpPutValY:
			out = append(out, SInstr{Op: SPutValY, W: w, A: a1, B: a2})
			setStatic(ins.A1, false)
		case wam.OpPutConst:
			out = append(out, SInstr{Op: SPutCell, W: w, A: a1, K: b.cell(rt.MkCon(ins.Fn.Name))})
			setStatic(ins.A1, true)
		case wam.OpPutInt:
			out = append(out, SInstr{Op: SPutCell, W: w, A: a1, K: b.cell(rt.MkInt(ins.I))})
			setStatic(ins.A1, true)
		case wam.OpPutNil:
			out = append(out, SInstr{Op: SPutCell, W: w, A: a1, K: b.cell(rt.MkCon(b.mod.Tab.Nil))})
			setStatic(ins.A1, true)
		case wam.OpPutList:
			out = append(out, SInstr{Op: SPutList, W: w, A: a1})
			// Static until a following unify slot proves otherwise.
			setStatic(ins.A1, true)
			uctx = ctxPut
		case wam.OpPutStruct:
			out = append(out, SInstr{Op: SPutStruct, W: w, A: a1, K: b.fn(ins.Fn)})
			setStatic(ins.A1, true)
			uctx = ctxPut

		case wam.OpUnifyVarX:
			out = append(out, SInstr{Op: SUnifyVarX, W: w, A: a2})
			// After a put the slot pushes a fresh variable (static);
			// after a get it aliases an incoming subterm.
			setStatic(ins.A2, uctx == ctxPut)
		case wam.OpUnifyVarY:
			out = append(out, SInstr{Op: SUnifyVarY, W: w, A: a2})
		case wam.OpUnifyValX:
			out = append(out, SInstr{Op: SUnifyValX, W: w, A: a2})
			if uctx == ctxGet {
				// Read mode may bind the register's referent to an
				// incoming subterm.
				setStatic(ins.A2, false)
			} else if !isStatic(ins.A2) {
				// A dynamic cell flows into the structure being built.
				b.poisonPutAnchor(out, &static)
			}
		case wam.OpUnifyValY:
			out = append(out, SInstr{Op: SUnifyValY, W: w, A: a2})
			if uctx == ctxPut {
				b.poisonPutAnchor(out, &static)
			}
		case wam.OpUnifyConst:
			out = append(out, SInstr{Op: SUnifyCell, W: w, K: b.cell(rt.MkCon(ins.Fn.Name))})
		case wam.OpUnifyInt:
			out = append(out, SInstr{Op: SUnifyCell, W: w, K: b.cell(rt.MkInt(ins.I))})
		case wam.OpUnifyNil:
			out = append(out, SInstr{Op: SUnifyCell, W: w, K: b.cell(rt.MkCon(b.mod.Tab.Nil))})
		case wam.OpUnifyVoid:
			out = append(out, SInstr{Op: SUnifyVoid, W: w, A: a2})

		case wam.OpAllocate:
			out = append(out, SInstr{Op: SAllocate, W: w, A: a2})
		case wam.OpDeallocate:
			out = append(out, SInstr{Op: SDeallocate, W: w})
		case wam.OpCall, wam.OpExecute:
			op := SCall
			if ins.Op == wam.OpExecute {
				op = SExecute
			}
			cr := CallRef{Fn: ins.Fn, Comp: -1, Clause0: -1, Static: -1}
			if b.opts.PreIntern && b.allArgsStatic(ins.Fn.Arity, &static, trackOK) {
				cr.Static = int32(b.cs.StaticSites)
				b.cs.StaticSites++
			}
			k := int32(len(b.cs.Calls))
			b.cs.Calls = append(b.cs.Calls, cr)
			if ins.Fn.Arity > maxX {
				maxX = ins.Fn.Arity
			}
			out = append(out, SInstr{Op: op, W: w, K: k})
			poisonAll()
			if ins.Op == wam.OpExecute {
				return b.finishClause(fn, addr, out, maxX)
			}
		case wam.OpProceed:
			out = append(out, SInstr{Op: SProceed, W: w})
			return b.finishClause(fn, addr, out, maxX)
		case wam.OpBuiltin:
			out = append(out, SInstr{Op: SBuiltin, W: w, A: a1, B: a2})
			poisonAll()
		case wam.OpHalt:
			out = append(out, SInstr{Op: SHalt, W: w})
			return b.finishClause(fn, addr, out, maxX)

		case wam.OpNeckCut, wam.OpGetLevel, wam.OpCutTo:
			out = append(out, SInstr{Op: SCutNop, W: w})

		default:
			// Choice or indexing instruction inside a clause body: not a
			// straight-line clause.
			return trap(w, TrapOpcode, p)
		}
	}
}

// poisonPutAnchor marks the structure currently being built (and
// anything that may alias it) context-dependent. We cannot cheaply
// name the anchor register here, so poison the whole file — rare
// enough (a dynamic unify_value inside a put run) not to matter.
func (b *builder) poisonPutAnchor(_ []SInstr, static *[maxTrackRegs]bool) {
	*static = [maxTrackRegs]bool{}
}

func (b *builder) allArgsStatic(arity int, static *[maxTrackRegs]bool, trackOK bool) bool {
	if !trackOK || arity >= maxTrackRegs {
		return false
	}
	for i := 1; i <= arity; i++ {
		if !static[i] {
			return false
		}
	}
	return true
}

// finishClause applies the component's fusion rules to the translated
// body and records it in the stream.
func (b *builder) finishClause(fn term.Functor, addr int, body []SInstr, maxX int) ClauseInfo {
	fused := 0
	if b.cs.FusionMask != 0 {
		body, fused = fuseClause(body, b.cs.FusionMask)
	}
	if maxX > 0xFFFF {
		maxX = 0xFFFF
	}
	info := ClauseInfo{
		Fn:    fn,
		Addr:  int32(addr),
		Off:   int32(len(b.cs.Code)),
		MaxX:  uint16(maxX),
		Fused: uint16(fused),
	}
	b.cs.Code = append(b.cs.Code, body...)
	return info
}

// fuseSlot classifies a word as a fusable unify slot, returning its
// slot kind, charge opcode and 16-bit operand.
func fuseSlot(ins SInstr) (kind uint8, w wam.Op, operand uint16, ok bool) {
	switch ins.Op {
	case SUnifyVarX:
		return SlotVarX, ins.W, ins.A, true
	case SUnifyValX:
		return SlotValX, ins.W, ins.A, true
	case SUnifyCell:
		if ins.K >= 0 && ins.K <= 0xFFFF {
			return SlotCell, ins.W, uint16(ins.K), true
		}
	}
	return 0, 0, 0, false
}

// fuseClause rewrites anchor+unify+unify triples into single
// superinstruction words according to the enabled rule mask.
func fuseClause(body []SInstr, mask uint32) ([]SInstr, int) {
	out := body[:0]
	fused := 0
	for i := 0; i < len(body); i++ {
		ins := body[i]
		var fop SOp
		var bit uint32
		switch ins.Op {
		case SGetList:
			fop, bit = SFGetList2, FuseGetList
		case SGetStruct:
			fop, bit = SFGetStruct2, FuseGetStruct
		case SPutList:
			fop, bit = SFPutList2, FusePutList
		case SPutStruct:
			fop, bit = SFPutStruct2, FusePutStruct
		}
		if fop != 0 && mask&bit != 0 && i+2 < len(body) {
			k1, w1, op1, ok1 := fuseSlot(body[i+1])
			k2, w2, op2, ok2 := fuseSlot(body[i+2])
			if ok1 && ok2 {
				out = append(out, SInstr{
					Op: fop,
					W:  ins.W, W1: w1, W2: w2,
					M: k1 | k2<<2,
					A: ins.A, B: op1, C: op2,
					K: ins.K,
				})
				fused++
				i += 2
				continue
			}
		}
		out = append(out, ins)
	}
	return out, fused
}
