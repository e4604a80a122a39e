package core

import (
	"fmt"

	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file is the abstract WAM's one dispatch loop. Every clause the
// fixpoint explores runs through runStream over its transfer stream
// (internal/specialize): the plain stream — one word per wam
// instruction — that analyze builds when Config.Spec is nil, or the
// supplied specialized program with fused superinstructions and
// pre-interned call sites. Calls recurse through the extension table
// (solveID); there are no choice points — clause enumeration lives in
// the strategies' explore loops (the paper: "creation and reclamation
// of backtracking points would better be incorporated into call and
// proceed rather than try and trust").
//
// Byte-identity contract: every word charges its base opcode through
// charge — error check, budget draw, step increment, periodic tick,
// opcode-histogram charge, Tracer event, in that order — and fused
// words charge each base opcode at the point its sub-operation runs.
// Results, Steps, the opcode histogram, the table counters and the
// Tracer's event sequence are therefore identical under every stream
// configuration; only wall time (and, under PreIntern, interner traffic)
// changes.

type absMode uint8

const (
	readMode absMode = iota
	writeMode
)

// run executes one clause abstractly through its transfer stream and
// returns the clause's abstract success. The clause's component is
// translated on its first execution (specialize.Program.Comp).
func (a *Analyzer) run(clauseAddr int) bool {
	loc := a.spec.Loc(clauseAddr)
	if loc.Comp < 0 {
		a.fail(fmt.Errorf("core: clause at %d lies outside the transfer program's components", clauseAddr))
		return false
	}
	return a.runStream(a.spec.Comp(int(loc.Comp)), loc.Clause)
}

// charge performs the per-instruction accounting for one base opcode;
// false aborts the clause.
func (a *Analyzer) charge(op wam.Op) bool {
	if a.err != nil {
		return false
	}
	if a.Steps >= a.cfg.MaxSteps {
		a.fail(ErrStepLimit)
		return false
	}
	a.Steps++
	if a.Steps&0xFFF == 0 && !a.tick() {
		return false
	}
	a.met.opcodes[op]++
	if a.tr != nil {
		a.tr.Instr(a.attrFn, op)
	}
	return true
}

// trapErr is the error of an executed trap word: code the builder could
// not translate into a straight-line transfer (specialize.Build).
func (a *Analyzer) trapErr(ins *specialize.SInstr) error {
	p := int(ins.K)
	switch ins.A {
	case specialize.TrapEnd:
		return fmt.Errorf("core: clause runs off the end of the code at %d", p)
	case specialize.TrapRegister:
		return fmt.Errorf("core: register operand out of range in %s inside clause at %d",
			a.mod.DisasmInstr(a.mod.Code[p]), p)
	}
	return fmt.Errorf("core: unexpected opcode %s inside clause at %d",
		a.mod.DisasmInstr(a.mod.Code[p]), p)
}

// runStream executes one clause's stream: a dense switch over
// compact 16-byte words with pre-resolved operands, register growth
// hoisted to clause entry, and environment frames drawn from a reusable
// pool instead of the garbage collector.
func (a *Analyzer) runStream(cs *specialize.CompStream, clause int32) bool {
	ci := &cs.Clauses[clause]
	a.ensureX(int(ci.MaxX))
	var env []rt.Cell
	defer func() {
		if env != nil {
			a.releaseEnv(env)
		}
	}()
	s := 0
	mode := readMode
	code := cs.Code
	for p := int(ci.Off); ; p++ {
		ins := &code[p]
		if !a.charge(ins.W) {
			return false
		}
		switch ins.Op {
		case specialize.SNop:

		// --- get instructions (Section 4.2 reinterpretation) ---
		case specialize.SGetVarX:
			a.x[ins.B] = a.x[ins.A]
		case specialize.SGetVarY:
			env[ins.B] = a.x[ins.A]
		case specialize.SGetValX:
			if !a.absUnify(a.x[ins.B], a.x[ins.A]) {
				return false
			}
		case specialize.SGetValY:
			if !a.absUnify(env[ins.B], a.x[ins.A]) {
				return false
			}
		case specialize.SGetCell:
			if !a.absUnify(a.x[ins.A], cs.Cells[ins.K]) {
				return false
			}
		case specialize.SGetList:
			ok, ns, nm := a.getList(a.x[ins.A])
			if !ok {
				return false
			}
			s, mode = ns, nm
		case specialize.SGetStruct:
			ok, ns, nm := a.getStruct(a.x[ins.A], cs.Fns[ins.K])
			if !ok {
				return false
			}
			s, mode = ns, nm

		// --- put instructions (unchanged from the concrete machine) ---
		case specialize.SPutVarX:
			v := a.h.PushVar()
			a.x[ins.B] = rt.MkRef(v)
			a.x[ins.A] = rt.MkRef(v)
		case specialize.SPutVarY:
			v := a.h.PushVar()
			env[ins.B] = rt.MkRef(v)
			a.x[ins.A] = rt.MkRef(v)
		case specialize.SPutValX:
			a.x[ins.A] = a.x[ins.B]
		case specialize.SPutValY:
			a.x[ins.A] = env[ins.B]
		case specialize.SPutCell:
			a.x[ins.A] = cs.Cells[ins.K]
		case specialize.SPutList:
			a.x[ins.A] = rt.Cell{Tag: rt.Lis, A: a.h.Top()}
			mode = writeMode
		case specialize.SPutStruct:
			fnAddr := a.h.Push(rt.Cell{Tag: rt.Fun, F: cs.Fns[ins.K]})
			a.x[ins.A] = rt.Cell{Tag: rt.Str, A: fnAddr}
			mode = writeMode

		// --- unify instructions ---
		case specialize.SUnifyVarX:
			if mode == readMode {
				a.x[ins.A] = rt.MkRef(s)
				s++
			} else {
				a.x[ins.A] = rt.MkRef(a.h.PushVar())
			}
		case specialize.SUnifyVarY:
			if mode == readMode {
				env[ins.A] = rt.MkRef(s)
				s++
			} else {
				env[ins.A] = rt.MkRef(a.h.PushVar())
			}
		case specialize.SUnifyValX:
			if mode == readMode {
				if !a.absUnify(a.x[ins.A], rt.MkRef(s)) {
					return false
				}
				s++
			} else {
				a.h.Push(a.x[ins.A])
			}
		case specialize.SUnifyValY:
			if mode == readMode {
				if !a.absUnify(env[ins.A], rt.MkRef(s)) {
					return false
				}
				s++
			} else {
				a.h.Push(env[ins.A])
			}
		case specialize.SUnifyCell:
			if mode == readMode {
				if !a.absUnify(rt.MkRef(s), cs.Cells[ins.K]) {
					return false
				}
				s++
			} else {
				a.h.Push(cs.Cells[ins.K])
			}
		case specialize.SUnifyVoid:
			if mode == readMode {
				s += int(ins.A)
			} else {
				for i := 0; i < int(ins.A); i++ {
					a.h.PushVar()
				}
			}

		// --- procedural instructions (Section 5 reinterpretation) ---
		case specialize.SAllocate:
			env = a.allocEnv(int(ins.A))
		case specialize.SDeallocate:
			// The frame stays reachable until the clause ends (it returns
			// to the pool then); the paper notes environment reclamation
			// tricks are "overkill" in the abstract machine.
		case specialize.SCall:
			if !a.specCall(cs, ins.K) {
				return false
			}
		case specialize.SExecute:
			return a.specCall(cs, ins.K)
		case specialize.SProceed:
			return true
		case specialize.SBuiltin:
			if !a.absBuiltin(wam.BuiltinID(ins.A), int(ins.B)) {
				return false
			}
		case specialize.SHalt:
			return true

		// --- cut: ignored (sound over-approximation; analyzing as if
		// every clause is reachable only adds success patterns) ---
		case specialize.SCutNop:
		case specialize.STrap:
			a.fail(a.trapErr(ins))
			return false

		// --- fused superinstructions: anchor + two unify slots, each
		// sub-operation charged at its own execution point so budget
		// exhaustion and failure land on the same step as unfused ---
		case specialize.SFGetList2:
			ok, ns, nm := a.getList(a.x[ins.A])
			if !ok {
				return false
			}
			s, mode = ns, nm
			a.met.fusedOps[0]++
			if s, mode, ok = a.fusedSlot(cs, ins.M&3, ins.W1, ins.B, s, mode); !ok {
				return false
			}
			if s, mode, ok = a.fusedSlot(cs, (ins.M>>2)&3, ins.W2, ins.C, s, mode); !ok {
				return false
			}
		case specialize.SFGetStruct2:
			ok, ns, nm := a.getStruct(a.x[ins.A], cs.Fns[ins.K])
			if !ok {
				return false
			}
			s, mode = ns, nm
			a.met.fusedOps[1]++
			if s, mode, ok = a.fusedSlot(cs, ins.M&3, ins.W1, ins.B, s, mode); !ok {
				return false
			}
			if s, mode, ok = a.fusedSlot(cs, (ins.M>>2)&3, ins.W2, ins.C, s, mode); !ok {
				return false
			}
		case specialize.SFPutList2:
			a.x[ins.A] = rt.Cell{Tag: rt.Lis, A: a.h.Top()}
			mode = writeMode
			a.met.fusedOps[2]++
			var ok bool
			if s, mode, ok = a.fusedSlot(cs, ins.M&3, ins.W1, ins.B, s, mode); !ok {
				return false
			}
			if s, mode, ok = a.fusedSlot(cs, (ins.M>>2)&3, ins.W2, ins.C, s, mode); !ok {
				return false
			}
		case specialize.SFPutStruct2:
			fnAddr := a.h.Push(rt.Cell{Tag: rt.Fun, F: cs.Fns[ins.K]})
			a.x[ins.A] = rt.Cell{Tag: rt.Str, A: fnAddr}
			mode = writeMode
			a.met.fusedOps[3]++
			var ok bool
			if s, mode, ok = a.fusedSlot(cs, ins.M&3, ins.W1, ins.B, s, mode); !ok {
				return false
			}
			if s, mode, ok = a.fusedSlot(cs, (ins.M>>2)&3, ins.W2, ins.C, s, mode); !ok {
				return false
			}
		}
	}
}

// fusedSlot executes one fused unify slot: charge its base opcode, then
// run the same mode-dependent transfer as the unfused unify word.
func (a *Analyzer) fusedSlot(cs *specialize.CompStream, kind uint8, w wam.Op, operand uint16, s int, mode absMode) (int, absMode, bool) {
	if !a.charge(w) {
		return s, mode, false
	}
	switch kind {
	case specialize.SlotVarX:
		if mode == readMode {
			a.x[operand] = rt.MkRef(s)
			s++
		} else {
			a.x[operand] = rt.MkRef(a.h.PushVar())
		}
	case specialize.SlotValX:
		if mode == readMode {
			if !a.absUnify(a.x[operand], rt.MkRef(s)) {
				return s, mode, false
			}
			s++
		} else {
			a.h.Push(a.x[operand])
		}
	case specialize.SlotCell:
		if mode == readMode {
			if !a.absUnify(rt.MkRef(s), cs.Cells[operand]) {
				return s, mode, false
			}
			s++
		} else {
			a.h.Push(cs.Cells[operand])
		}
	}
	return s, mode, true
}

// staticPat caches a static call site's calling pattern: the builder
// proved the site's arguments are rebuilt identically on every
// execution, so the abstraction and interner round trip run once per
// analysis.
type staticPat struct {
	cp *domain.Pattern
	id domain.PatternID
	ok bool
}

// specCall is the reinterpreted call instruction (Section 5) over a
// pre-resolved CallRef: abstract the argument registers into a calling
// pattern, consult the extension table (solving recursively when
// unexplored), and apply the success pattern deterministically.
// Argument slices come from a pool; static sites (PreIntern) read their
// cached calling pattern.
func (a *Analyzer) specCall(cs *specialize.CompStream, k int32) bool {
	cr := &cs.Calls[k]
	fn := cr.Fn
	argAddrs := a.allocArgs(fn.Arity)
	defer a.releaseArgs(argAddrs)
	for i := 0; i < fn.Arity; i++ {
		a.ensureX(i + 1)
		c := a.x[i+1]
		if c.Tag == rt.Ref {
			argAddrs[i] = c.A
		} else {
			argAddrs[i] = a.h.Push(c)
		}
	}
	var cp *domain.Pattern
	var id domain.PatternID
	if cr.Static >= 0 {
		if a.staticCalls == nil {
			a.staticCalls = make([][]staticPat, len(a.spec.Comps))
		}
		row := a.staticCalls[cs.Index]
		if row == nil {
			row = make([]staticPat, cs.StaticSites)
			a.staticCalls[cs.Index] = row
		}
		sc := &row[cr.Static]
		if !sc.ok {
			sc.id = a.abstractID(fn, argAddrs)
			sc.cp = a.in.Pattern(sc.id)
			sc.ok = true
		}
		cp, id = sc.cp, sc.id
	} else {
		id = a.abstractID(fn, argAddrs)
		cp = a.in.Pattern(id)
	}
	succ := a.solveID(cp, id)
	if a.err != nil {
		return false
	}
	if succ == nil {
		return false
	}
	// succ ⊑ cp argument-wise, but the caller's actual cells can be
	// strictly below cp (e.g. a specific constant vs atom); a clash
	// means this particular call has no successes.
	return a.applyPattern(succ, argAddrs)
}

// applyPattern unifies a success pattern onto the caller's argument
// cells — the deterministic return of the extension-table scheme.
func (a *Analyzer) applyPattern(p *domain.Pattern, argAddrs []int) bool {
	matAddrs := a.materialize(p)
	for i := range argAddrs {
		if !a.absUnify(rt.MkRef(argAddrs[i]), rt.MkRef(matAddrs[i])) {
			return false
		}
	}
	return true
}

// solveID explores a pre-interned calling pattern under the running
// strategy's table discipline, returning the success pattern (nil =
// bottom). Under the naive and worklist strategies the read is recorded
// on the exploration in progress, for replayRec.
func (a *Analyzer) solveID(cp *domain.Pattern, id domain.PatternID) *domain.Pattern {
	if a.fin != nil {
		return a.solveFinID(cp, id)
	}
	var succ *domain.Pattern
	if a.wl != nil {
		succ = a.solveWLID(cp, id)
	} else {
		succ = a.solveNaiveID(cp, id)
	}
	a.noteRead(id)
	return succ
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

// getList reinterprets get_list over the abstract domain — the paper's
// Figure 4.
func (a *Analyzer) getList(x rt.Cell) (ok bool, s int, mode absMode) {
	c, addr := a.h.ResolveCell(x)
	switch c.Tag {
	case rt.Lis:
		// Concrete case: same as the standard WAM.
		return true, c.A, readMode
	case rt.Ref, rt.AVar:
		// Unbound: build the pair in write mode.
		a.h.Bind(addr, rt.Cell{Tag: rt.Lis, A: a.h.Top()})
		return true, 0, writeMode
	case rt.AAny:
		// ComplexTermInst: generate a [·|·] instance on the heap and
		// proceed in read mode over fresh 'any' subterms.
		return a.instPair(addr, rt.Cell{Tag: rt.AAny}, rt.Cell{Tag: rt.AAny})
	case rt.ANV:
		return a.instPair(addr, rt.Cell{Tag: rt.AAny}, rt.Cell{Tag: rt.AAny})
	case rt.AGround:
		return a.instPair(addr, rt.Cell{Tag: rt.AGround}, rt.Cell{Tag: rt.AGround})
	case rt.AList:
		// Figure 3 step 2.1: glist <- [g|glist'].
		elem := c.A
		car := a.copyTypeGraph(elem, make(map[int]int))
		cdr := a.h.PushOpen(rt.AList, elem)
		pair := a.h.Push(rt.MkRef(car))
		a.h.Push(rt.MkRef(cdr))
		a.h.Bind(addr, rt.Cell{Tag: rt.Lis, A: pair})
		return true, pair, readMode
	default:
		return false, 0, readMode
	}
}

// instPair instantiates the open cell at addr to a fresh pair with the
// given car/cdr cells, read mode over them.
func (a *Analyzer) instPair(addr int, car, cdr rt.Cell) (bool, int, absMode) {
	pair := a.h.Push(car)
	a.h.Push(cdr)
	a.h.Bind(addr, rt.Cell{Tag: rt.Lis, A: pair})
	return true, pair, readMode
}

// getStruct reinterprets get_structure over the abstract domain.
func (a *Analyzer) getStruct(x rt.Cell, fn term.Functor) (ok bool, s int, mode absMode) {
	c, addr := a.h.ResolveCell(x)
	switch c.Tag {
	case rt.Str:
		if a.h.At(c.A).F != fn {
			return false, 0, readMode
		}
		return true, c.A + 1, readMode
	case rt.Lis:
		if fn.Name == a.tab.Dot && fn.Arity == 2 {
			return true, c.A, readMode
		}
		return false, 0, readMode
	case rt.Ref, rt.AVar:
		fnAddr := a.h.Push(rt.Cell{Tag: rt.Fun, F: fn})
		a.h.Bind(addr, rt.Cell{Tag: rt.Str, A: fnAddr})
		return true, 0, writeMode
	case rt.AAny, rt.ANV:
		return a.instStruct(addr, fn, rt.Cell{Tag: rt.AAny})
	case rt.AGround:
		// Paper example 2.2: get an f(·) instance of g.
		return a.instStruct(addr, fn, rt.Cell{Tag: rt.AGround})
	case rt.AList:
		if fn.Name == a.tab.Dot && fn.Arity == 2 {
			ok2, s2, m2 := a.getList(x)
			return ok2, s2, m2
		}
		return false, 0, readMode
	default:
		return false, 0, readMode
	}
}

// instStruct instantiates the open cell at addr to f(arg,...,arg) with
// fresh copies of the given argument cell.
func (a *Analyzer) instStruct(addr int, fn term.Functor, arg rt.Cell) (bool, int, absMode) {
	fnAddr := a.h.Push(rt.Cell{Tag: rt.Fun, F: fn})
	for i := 0; i < fn.Arity; i++ {
		a.h.Push(arg)
	}
	a.h.Bind(addr, rt.Cell{Tag: rt.Str, A: fnAddr})
	return true, fnAddr + 1, readMode
}
