// Package machine implements the concrete (standard) WAM: the left-hand
// path of the paper's Figure 1. It executes the code produced by
// internal/compiler with the usual register set (argument/temporary X
// registers, environment Y slots), a heap, a value trail, environments
// linked through pointers, and a choice-point stack.
//
// The machine exists for three reasons: it runs the benchmark programs
// (so the repository is a complete Prolog system, as the paper's pipeline
// requires), it validates the compiler that feeds the abstract analyzer,
// and it provides the ground truth for the analysis soundness tests —
// every concrete answer must be a member of the analyzer's inferred
// success pattern.
package machine

import (
	"errors"
	"fmt"
	"io"

	"awam/internal/rt"
	"awam/internal/term"
	"awam/internal/wam"
)

// haltPC is the continuation sentinel meaning "query solved".
const haltPC = -2

// ErrStepLimit is returned when execution exceeds Machine.MaxSteps.
var ErrStepLimit = errors.New("machine: step limit exceeded")

type mode uint8

const (
	readMode mode = iota
	writeMode
)

// Env is an environment frame (AND-stack record). Frames are linked by
// pointer rather than stacked in an array so that choice points can keep
// deallocated-but-protected frames alive without an explicit barrier.
type Env struct {
	prev *Env
	cp   int // continuation (return address) saved by allocate
	y    []rt.Cell
}

// ChoicePoint saves the machine state needed to retry an alternative.
// For dynamic-fact enumeration (assert/1 database), dynNext > 0 marks a
// resume point in the fact list instead of a code alternative.
type ChoicePoint struct {
	alt   int
	e     *Env
	cp    int
	mark  rt.Mark
	args  []rt.Cell
	b0    int
	arity int

	dynFn   term.Functor
	dynNext int
	dynAddr int
	dynExec bool
}

// Machine is a concrete WAM instance over one compiled module.
type Machine struct {
	Mod *wam.Module
	H   *rt.Heap

	x        []rt.Cell // X/A registers, 1-based (x[0] unused)
	e        *Env
	cps      []ChoicePoint
	p        int
	cp       int
	b0       int
	s        int
	mode     mode
	curArity int

	// Steps counts executed instructions (the concrete analogue of the
	// paper's "Exec" column).
	Steps int64
	// MaxSteps bounds execution; 0 means the default.
	MaxSteps int64
	// Out receives write/1 and nl/0 output; nil discards it.
	Out io.Writer
	// Trace, when non-nil, receives one line per executed instruction
	// (address and disassembly) — the classic WAM debugging aid.
	Trace io.Writer

	dyn        map[term.Functor]*dynPred
	builtinErr error
}

// New returns a machine for mod.
func New(mod *wam.Module) *Machine {
	return &Machine{
		Mod:      mod,
		H:        rt.NewHeap(),
		x:        make([]rt.Cell, 16),
		MaxSteps: 200_000_000,
	}
}

func (m *Machine) ensureX(n int) {
	for len(m.x) <= n {
		m.x = append(m.x, rt.Cell{})
	}
}

func (m *Machine) setX(n int, c rt.Cell) {
	m.ensureX(n)
	m.x[n] = c
}

func (m *Machine) getX(n int) rt.Cell {
	m.ensureX(n)
	return m.x[n]
}

// CallAddrs invokes predicate fn with the heap addresses argAddrs as
// arguments and runs to the first solution.
func (m *Machine) CallAddrs(fn term.Functor, argAddrs []int) (bool, error) {
	proc := m.Mod.Proc(fn)
	if proc == nil {
		return false, fmt.Errorf("machine: undefined predicate %s", m.Mod.Tab.FuncString(fn))
	}
	if len(argAddrs) != fn.Arity {
		return false, fmt.Errorf("machine: %s called with %d args", m.Mod.Tab.FuncString(fn), len(argAddrs))
	}
	m.cps = m.cps[:0]
	m.e = nil
	m.cp = haltPC
	m.b0 = 0
	m.curArity = fn.Arity
	for i, a := range argAddrs {
		m.setX(i+1, rt.MkRef(a))
	}
	m.p = proc.Entry
	return m.run()
}

// Redo backtracks into the most recent solution's remaining choice points
// and searches for the next solution.
func (m *Machine) Redo() (bool, error) {
	if !m.backtrack() {
		return false, nil
	}
	return m.run()
}

// run executes until success (continuation reaches the halt sentinel),
// definite failure, or an error.
func (m *Machine) run() (bool, error) {
	if m.MaxSteps == 0 {
		m.MaxSteps = 200_000_000
	}
	for {
		if m.p == haltPC {
			return true, nil
		}
		if m.p < 0 || m.p >= len(m.Mod.Code) {
			return false, fmt.Errorf("machine: pc %d out of range", m.p)
		}
		if m.Steps >= m.MaxSteps {
			return false, ErrStepLimit
		}
		m.Steps++
		ins := m.Mod.Code[m.p]
		if m.Trace != nil {
			fmt.Fprintf(m.Trace, "%6d  %s\n", m.p, m.Mod.DisasmInstr(ins))
		}
		ok := m.step(ins)
		if m.builtinErr != nil {
			err := m.builtinErr
			if fn, found := m.Mod.OwnerOf(m.p); found {
				err = fmt.Errorf("%w (at %d in %s)", err, m.p, m.Mod.Tab.FuncString(fn))
			}
			return false, err
		}
		if !ok && !m.backtrack() {
			return false, nil
		}
	}
}

// step executes one instruction; false means "unification failed,
// backtrack".
func (m *Machine) step(ins wam.Instr) bool {
	switch ins.Op {
	case wam.OpNop:
		m.p++

	// --- get instructions ---
	case wam.OpGetVarX:
		m.setX(ins.A2, m.getX(ins.A1))
		m.p++
	case wam.OpGetVarY:
		m.e.y[ins.A2] = m.getX(ins.A1)
		m.p++
	case wam.OpGetValX:
		if !m.unify(m.getX(ins.A2), m.getX(ins.A1)) {
			return false
		}
		m.p++
	case wam.OpGetValY:
		if !m.unify(m.e.y[ins.A2], m.getX(ins.A1)) {
			return false
		}
		m.p++
	case wam.OpGetConst:
		if !m.getConstant(rt.MkCon(ins.Fn.Name), ins.A1) {
			return false
		}
		m.p++
	case wam.OpGetInt:
		if !m.getConstant(rt.MkInt(ins.I), ins.A1) {
			return false
		}
		m.p++
	case wam.OpGetNil:
		if !m.getConstant(rt.MkCon(m.Mod.Tab.Nil), ins.A1) {
			return false
		}
		m.p++
	case wam.OpGetList:
		c, addr := m.H.ResolveCell(m.getX(ins.A1))
		switch c.Tag {
		case rt.Lis:
			m.s = c.A
			m.mode = readMode
		case rt.Ref:
			m.H.Bind(addr, rt.Cell{Tag: rt.Lis, A: m.H.Top()})
			m.mode = writeMode
		default:
			return false
		}
		m.p++
	case wam.OpGetStruct:
		c, addr := m.H.ResolveCell(m.getX(ins.A1))
		switch c.Tag {
		case rt.Str:
			if m.H.At(c.A).F != ins.Fn {
				return false
			}
			m.s = c.A + 1
			m.mode = readMode
		case rt.Ref:
			fnAddr := m.H.Push(rt.Cell{Tag: rt.Fun, F: ins.Fn})
			m.H.Bind(addr, rt.Cell{Tag: rt.Str, A: fnAddr})
			m.mode = writeMode
		default:
			return false
		}
		m.p++

	// --- put instructions ---
	case wam.OpPutVarX:
		a := m.H.PushVar()
		m.setX(ins.A2, rt.MkRef(a))
		m.setX(ins.A1, rt.MkRef(a))
		m.p++
	case wam.OpPutVarY:
		a := m.H.PushVar()
		m.e.y[ins.A2] = rt.MkRef(a)
		m.setX(ins.A1, rt.MkRef(a))
		m.p++
	case wam.OpPutValX:
		m.setX(ins.A1, m.getX(ins.A2))
		m.p++
	case wam.OpPutValY:
		m.setX(ins.A1, m.e.y[ins.A2])
		m.p++
	case wam.OpPutConst:
		m.setX(ins.A1, rt.MkCon(ins.Fn.Name))
		m.p++
	case wam.OpPutInt:
		m.setX(ins.A1, rt.MkInt(ins.I))
		m.p++
	case wam.OpPutNil:
		m.setX(ins.A1, rt.MkCon(m.Mod.Tab.Nil))
		m.p++
	case wam.OpPutList:
		m.setX(ins.A1, rt.Cell{Tag: rt.Lis, A: m.H.Top()})
		m.mode = writeMode
		m.p++
	case wam.OpPutStruct:
		fnAddr := m.H.Push(rt.Cell{Tag: rt.Fun, F: ins.Fn})
		m.setX(ins.A1, rt.Cell{Tag: rt.Str, A: fnAddr})
		m.mode = writeMode
		m.p++

	// --- unify instructions ---
	case wam.OpUnifyVarX:
		if m.mode == readMode {
			m.setX(ins.A2, rt.MkRef(m.s))
			m.s++
		} else {
			a := m.H.PushVar()
			m.setX(ins.A2, rt.MkRef(a))
		}
		m.p++
	case wam.OpUnifyVarY:
		if m.mode == readMode {
			m.e.y[ins.A2] = rt.MkRef(m.s)
			m.s++
		} else {
			a := m.H.PushVar()
			m.e.y[ins.A2] = rt.MkRef(a)
		}
		m.p++
	case wam.OpUnifyValX:
		if m.mode == readMode {
			if !m.unify(m.getX(ins.A2), rt.MkRef(m.s)) {
				return false
			}
			m.s++
		} else {
			m.H.Push(m.getX(ins.A2))
		}
		m.p++
	case wam.OpUnifyValY:
		if m.mode == readMode {
			if !m.unify(m.e.y[ins.A2], rt.MkRef(m.s)) {
				return false
			}
			m.s++
		} else {
			m.H.Push(m.e.y[ins.A2])
		}
		m.p++
	case wam.OpUnifyConst:
		if !m.unifyStep(rt.MkCon(ins.Fn.Name)) {
			return false
		}
		m.p++
	case wam.OpUnifyInt:
		if !m.unifyStep(rt.MkInt(ins.I)) {
			return false
		}
		m.p++
	case wam.OpUnifyNil:
		if !m.unifyStep(rt.MkCon(m.Mod.Tab.Nil)) {
			return false
		}
		m.p++
	case wam.OpUnifyVoid:
		if m.mode == readMode {
			m.s += ins.A2
		} else {
			for i := 0; i < ins.A2; i++ {
				m.H.PushVar()
			}
		}
		m.p++

	// --- procedural instructions ---
	case wam.OpAllocate:
		m.e = &Env{prev: m.e, cp: m.cp, y: make([]rt.Cell, ins.A2)}
		m.p++
	case wam.OpDeallocate:
		m.cp = m.e.cp
		m.e = m.e.prev
		m.p++
	case wam.OpCall:
		if ins.L == wam.FailAddr {
			return m.dynCallEntry(ins.Fn, false)
		}
		m.cp = m.p + 1
		m.b0 = len(m.cps)
		m.curArity = ins.Fn.Arity
		m.p = ins.L
	case wam.OpExecute:
		if ins.L == wam.FailAddr {
			return m.dynCallEntry(ins.Fn, true)
		}
		m.b0 = len(m.cps)
		m.curArity = ins.Fn.Arity
		m.p = ins.L
	case wam.OpProceed:
		m.p = m.cp
	case wam.OpBuiltin:
		ok, err := m.callBuiltin(wam.BuiltinID(ins.A1))
		if err != nil {
			m.builtinErr = err
			return true // run() notices builtinErr
		}
		if !ok {
			return false
		}
		m.p++
	case wam.OpHalt:
		m.p = haltPC

	// --- cut ---
	case wam.OpNeckCut:
		if len(m.cps) > m.b0 {
			m.cps = m.cps[:m.b0]
		}
		m.p++
	case wam.OpGetLevel:
		m.e.y[ins.A2] = rt.MkInt(int64(m.b0))
		m.p++
	case wam.OpCutTo:
		barrier := int(m.e.y[ins.A2].I)
		if len(m.cps) > barrier {
			m.cps = m.cps[:barrier]
		}
		m.p++

	// --- choice instructions ---
	case wam.OpTryMeElse:
		m.pushCP(ins.L)
		m.p++
	case wam.OpRetryMeElse:
		m.cps[len(m.cps)-1].alt = ins.L
		m.p++
	case wam.OpTrustMe:
		m.cps = m.cps[:len(m.cps)-1]
		m.p++
	case wam.OpTry:
		m.pushCP(m.p + 1)
		m.p = ins.L
	case wam.OpRetry:
		m.cps[len(m.cps)-1].alt = m.p + 1
		m.p = ins.L
	case wam.OpTrust:
		m.cps = m.cps[:len(m.cps)-1]
		m.p = ins.L

	// --- indexing ---
	case wam.OpSwitchOnTerm:
		sw := m.Mod.Switch(ins)
		c, _ := m.H.ResolveCell(m.getX(1))
		var tgt int
		switch c.Tag {
		case rt.Ref:
			tgt = sw.LV
		case rt.Con, rt.Int:
			tgt = sw.LC
		case rt.Lis:
			tgt = sw.LL
		case rt.Str:
			tgt = sw.LS
		default:
			tgt = sw.LV
		}
		if tgt == wam.FailAddr {
			return false
		}
		m.p = tgt
	case wam.OpSwitchOnConst:
		c, _ := m.H.ResolveCell(m.getX(1))
		var key wam.ConstKey
		switch c.Tag {
		case rt.Int:
			key = wam.ConstKey{IsInt: true, I: c.I}
		case rt.Con:
			key = wam.ConstKey{A: c.F.Name}
		default:
			return false
		}
		sw := m.Mod.Switch(ins)
		tgt, ok := sw.TblC[key]
		if !ok {
			// Key absent: take the table's default (the optimizer's
			// var-headed-clause block) when present, else fail.
			if sw.LD == 0 {
				return false
			}
			tgt = sw.LD
		}
		if tgt == wam.FailAddr {
			return false
		}
		m.p = tgt
	case wam.OpSwitchOnStruct:
		c, _ := m.H.ResolveCell(m.getX(1))
		if c.Tag != rt.Str {
			return false
		}
		sw := m.Mod.Switch(ins)
		tgt, ok := sw.TblS[m.H.At(c.A).F]
		if !ok {
			if sw.LD == 0 {
				return false
			}
			tgt = sw.LD
		}
		if tgt == wam.FailAddr {
			return false
		}
		m.p = tgt

	// --- specialized instructions (internal/optimize) ---
	// The analysis proved the argument non-variable; the binding paths
	// are gone. Meeting an unbound variable here would mean the analysis
	// was unsound, which the optimizer tests assert never happens.
	case wam.OpGetConstCmp, wam.OpGetIntCmp, wam.OpGetNilCmp:
		c, _ := m.H.ResolveCell(m.getX(ins.A1))
		var k rt.Cell
		switch ins.Op {
		case wam.OpGetConstCmp:
			k = rt.MkCon(ins.Fn.Name)
		case wam.OpGetIntCmp:
			k = rt.MkInt(ins.I)
		default:
			k = rt.MkCon(m.Mod.Tab.Nil)
		}
		switch c.Tag {
		case rt.Ref:
			m.builtinErr = fmt.Errorf("machine: specialized %s met an unbound variable (unsound analysis)",
				m.Mod.DisasmInstr(ins))
			return true
		case rt.Con:
			if !(k.Tag == rt.Con && c.F.Name == k.F.Name) {
				return false
			}
		case rt.Int:
			if !(k.Tag == rt.Int && c.I == k.I) {
				return false
			}
		default:
			return false
		}
		m.p++
	case wam.OpGetListRead:
		c, _ := m.H.ResolveCell(m.getX(ins.A1))
		switch c.Tag {
		case rt.Lis:
			m.s = c.A
			m.mode = readMode
		case rt.Ref:
			m.builtinErr = fmt.Errorf("machine: get_list* met an unbound variable (unsound analysis)")
			return true
		default:
			return false
		}
		m.p++
	case wam.OpGetStructRead:
		c, _ := m.H.ResolveCell(m.getX(ins.A1))
		switch c.Tag {
		case rt.Str:
			if m.H.At(c.A).F != ins.Fn {
				return false
			}
			m.s = c.A + 1
			m.mode = readMode
		case rt.Ref:
			m.builtinErr = fmt.Errorf("machine: get_structure* met an unbound variable (unsound analysis)")
			return true
		default:
			return false
		}
		m.p++

	default:
		m.builtinErr = fmt.Errorf("machine: unknown opcode %d at %d", ins.Op, m.p)
	}
	return true
}

// getConstant unifies the constant cell k with argument register ai.
func (m *Machine) getConstant(k rt.Cell, ai int) bool {
	c, addr := m.H.ResolveCell(m.getX(ai))
	switch c.Tag {
	case rt.Ref:
		m.H.Bind(addr, k)
		return true
	case rt.Con:
		return k.Tag == rt.Con && c.F.Name == k.F.Name
	case rt.Int:
		return k.Tag == rt.Int && c.I == k.I
	default:
		return false
	}
}

// unifyStep handles unify_constant/integer/nil in the current mode.
func (m *Machine) unifyStep(k rt.Cell) bool {
	if m.mode == readMode {
		ok := m.unify(rt.MkRef(m.s), k)
		m.s++
		return ok
	}
	m.H.Push(k)
	return true
}

func (m *Machine) pushCP(alt int) {
	n := m.curArity
	args := make([]rt.Cell, n)
	for i := 0; i < n; i++ {
		args[i] = m.getX(i + 1)
	}
	m.cps = append(m.cps, ChoicePoint{
		alt:   alt,
		e:     m.e,
		cp:    m.cp,
		mark:  m.H.Mark(),
		args:  args,
		b0:    m.b0,
		arity: n,
	})
}

// backtrack restores the newest choice point and jumps to its
// alternative; false when no choice point remains.
func (m *Machine) backtrack() bool {
	for {
		if len(m.cps) == 0 {
			return false
		}
		cp := &m.cps[len(m.cps)-1]
		m.H.Undo(cp.mark)
		m.e = cp.e
		m.cp = cp.cp
		m.b0 = cp.b0
		m.curArity = cp.arity
		for i, c := range cp.args {
			m.setX(i+1, c)
		}
		if cp.dynNext > 0 {
			// Dynamic-fact resume: this choice point is consumed; the
			// next matching fact (if any) pushes a fresh one.
			fn, exec, addr, next := cp.dynFn, cp.dynExec, cp.dynAddr, cp.dynNext
			m.cps = m.cps[:len(m.cps)-1]
			if m.dynCall(fn, exec, addr, next) {
				return true
			}
			continue
		}
		m.p = cp.alt
		return true
	}
}

// dynCallEntry is the call/execute path for predicates with no compiled
// code: consult the dynamic database.
func (m *Machine) dynCallEntry(fn term.Functor, isExecute bool) bool {
	if m.dyn[fn] == nil {
		return false
	}
	m.curArity = fn.Arity
	return m.dynCall(fn, isExecute, m.p, 0)
}

// unify performs general unification of two cells with an explicit stack.
func (m *Machine) unify(a, b rt.Cell) bool {
	type pair struct{ a, b rt.Cell }
	stack := []pair{{a, b}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ca, aa := m.H.ResolveCell(p.a)
		cb, ab := m.H.ResolveCell(p.b)
		if aa >= 0 && aa == ab {
			continue
		}
		switch {
		case ca.Tag == rt.Ref && cb.Tag == rt.Ref:
			// Bind the younger variable to the older one.
			if aa > ab {
				m.H.Bind(aa, rt.MkRef(ab))
			} else {
				m.H.Bind(ab, rt.MkRef(aa))
			}
		case ca.Tag == rt.Ref:
			if ab >= 0 {
				m.H.Bind(aa, rt.MkRef(ab))
			} else {
				m.H.Bind(aa, cb)
			}
		case cb.Tag == rt.Ref:
			if aa >= 0 {
				m.H.Bind(ab, rt.MkRef(aa))
			} else {
				m.H.Bind(ab, ca)
			}
		case ca.Tag == rt.Con && cb.Tag == rt.Con:
			if ca.F.Name != cb.F.Name {
				return false
			}
		case ca.Tag == rt.Int && cb.Tag == rt.Int:
			if ca.I != cb.I {
				return false
			}
		case ca.Tag == rt.Lis && cb.Tag == rt.Lis:
			stack = append(stack,
				pair{rt.MkRef(ca.A), rt.MkRef(cb.A)},
				pair{rt.MkRef(ca.A + 1), rt.MkRef(cb.A + 1)})
		case ca.Tag == rt.Str && cb.Tag == rt.Str:
			fa, fb := m.H.At(ca.A), m.H.At(cb.A)
			if fa.F != fb.F {
				return false
			}
			for i := 1; i <= fa.F.Arity; i++ {
				stack = append(stack, pair{rt.MkRef(ca.A + i), rt.MkRef(cb.A + i)})
			}
		default:
			return false
		}
	}
	return true
}
