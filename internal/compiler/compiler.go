// Package compiler translates parsed Prolog programs into WAM code. It
// plays the role of the PLM compiler in the paper's pipeline (Figure 1):
// the code it emits is consumed unchanged both by the concrete machine
// for execution and by the abstract machine for dataflow analysis.
//
// The translation is the classic one: head arguments compile to get/unify
// instruction sequences in breadth-first subterm order (Figure 2 of the
// paper), body arguments to put/unify sequences built bottom-up, control
// to allocate/call/execute/proceed with last-call optimization, and
// clause selection to try/retry/trust chains behind an optional
// first-argument switch.
//
// One deliberate simplification: put_variable for permanent variables
// allocates the variable cell on the heap (not in the environment), so
// every register and environment slot only ever holds heap references or
// constants. This removes the unsafe-value/globalization machinery at the
// cost of a little heap, and makes environments trivially safe to share
// with choice points. Environment trimming is likewise omitted — the
// paper itself notes trimming "appears to be overkill" for the abstract
// machine.
package compiler

import (
	"errors"
	"fmt"

	"awam/internal/term"
	"awam/internal/wam"
)

// ErrRegisterLimit reports a clause that needs a register operand above
// wam.MaxRegister, such as a deeply nested term in a body goal. Both
// machines reject such a program at compile time, so they agree on
// which programs they accept.
var ErrRegisterLimit = errors.New("compiler: clause exceeds the register limit")

// Options control optional compilation features.
type Options struct {
	// Indexing enables first-argument indexing (switch_on_term and
	// friends). Both machines run indexed and unindexed code.
	Indexing bool
}

// DefaultOptions enables indexing.
func DefaultOptions() Options { return Options{Indexing: true} }

// Compiler holds state for one compilation unit.
type Compiler struct {
	tab      *term.Tab
	opts     Options
	builtins map[term.Functor]wam.BuiltinID
	mod      *wam.Module
	fixups   []fixup
	// Warnings collects undefined-predicate notes (calls compile to a
	// failing target rather than an error, matching Prolog practice).
	Warnings []string
}

type fixup struct {
	addr int
	fn   term.Functor
}

// Compile translates prog into a WAM module.
func Compile(tab *term.Tab, prog *term.Program) (*wam.Module, error) {
	return CompileWith(tab, prog, DefaultOptions())
}

// CompileWith is Compile with explicit options.
func CompileWith(tab *term.Tab, prog *term.Program, opts Options) (*wam.Module, error) {
	mod, _, err := CompileExpanded(tab, prog, opts)
	return mod, err
}

// CompileExpanded is CompileWith that also returns the control-expanded
// program the module was compiled from (ExpandedProgram(tab, prog)), so
// a caller that needs the clause-level view too does not expand again.
func CompileExpanded(tab *term.Tab, prog *term.Program, opts Options) (*wam.Module, *term.Program, error) {
	prog, err := ExpandedProgram(tab, prog)
	if err != nil {
		return nil, nil, err
	}
	mod, _, err := Link(tab, prog, Base{}, opts)
	if err != nil {
		return nil, nil, err
	}
	return mod, prog, nil
}

// procBound returns an upper bound on the number of instructions
// compileProc emits for predicate f of prog, so that the code array is
// allocated once. Per clause it counts one choice instruction, the head
// and body argument sequences (argWords), one call, builtin or cut per
// goal, allocate, get_level and deallocate when the body has two or
// more goals, and the closing proceed. An indexed predicate adds its
// switch_on_term, one constant and one structure table, and
// try/retry/trust blocks that name each clause at most once.
func procBound(prog *term.Program, f term.Functor) int {
	idx := prog.Preds[f]
	n := 0
	if len(idx) >= 2 {
		n += len(idx)
		if f.Arity >= 1 {
			n += 3 + len(idx)
		}
	}
	for _, j := range idx {
		cl := &prog.Clauses[j]
		n++
		if cl.Head.Kind == term.KStruct {
			for _, a := range cl.Head.Args {
				n += argWords(a)
			}
		}
		if len(cl.Body) >= 2 {
			n += 3
		}
		for _, g := range cl.Body {
			n++
			if g.Kind == term.KStruct {
				for _, a := range g.Args {
					n += argWords(a)
				}
			}
		}
	}
	return n
}

// codeBound is procBound summed over prog's predicates: the capacity
// CompileWith allocates for prog.
func codeBound(prog *term.Program) int {
	n := 0
	for _, f := range prog.Order {
		n += procBound(prog, f)
	}
	return n
}

// argWords bounds the get or put sequence of one argument: one
// instruction for a variable or constant; for a structure, a get or put
// plus one unify per argument at every structure node.
func argWords(t *term.Term) int {
	if t.Kind != term.KStruct {
		return 1
	}
	n := 1 + len(t.Args)
	for _, a := range t.Args {
		if a.Kind == term.KStruct {
			n += argWords(a)
		}
	}
	return n
}

// AddQuery compiles goals as the body of a fresh predicate
// '$query<N>'(V1,...,Vk) where Vi are the distinct variables of the
// goals, appends it to mod, and returns its functor together with the
// variables in argument order. The machine calls the predicate with
// fresh cells and reads the bindings back out.
func AddQuery(mod *wam.Module, goals []*term.Term) (term.Functor, []*term.Term, error) {
	c := &Compiler{
		tab:      mod.Tab,
		opts:     DefaultOptions(),
		builtins: wam.Builtins(mod.Tab),
		mod:      mod,
	}
	name := fmt.Sprintf("$query%d", len(mod.Order))
	clause := term.Clause{Head: term.MkAtom(mod.Tab.Intern(name)), Body: goals}
	// Expand control constructs in the query; auxiliary names are
	// namespaced by the query counter to avoid clashing with predicates
	// already in the module.
	exp := &expander{tab: mod.Tab, next: (len(mod.Order) + 1) * 1000}
	exp.clause(clause)
	aux := exp.out[:len(exp.out)-1]
	clause = exp.out[len(exp.out)-1]
	vars := clause.Vars()
	if len(vars) > 0 {
		args := make([]*term.Term, len(vars))
		copy(args, vars)
		clause.Head = term.MkStruct(mod.Tab.Func(name, len(vars)), args...)
	}
	fn := clause.Head.Fn
	if err := c.compileProc(fn, []term.Clause{clause}); err != nil {
		return term.Functor{}, nil, err
	}
	// Compile any auxiliary predicates the expansion produced.
	if len(aux) > 0 {
		auxProg, err := term.NewProgram(aux)
		if err != nil {
			return term.Functor{}, nil, err
		}
		for _, af := range auxProg.Order {
			if err := c.compileProc(af, auxProg.ClausesOf(af)); err != nil {
				return term.Functor{}, nil, err
			}
		}
	}
	c.resolveFixups()
	return fn, vars, nil
}

func (c *Compiler) resolveFixups() {
	for _, fx := range c.fixups {
		if p, ok := c.mod.Procs[fx.fn]; ok {
			c.mod.Code[fx.addr].L = p.Entry
		} else {
			c.mod.Code[fx.addr].L = wam.FailAddr
			c.Warnings = append(c.Warnings,
				fmt.Sprintf("undefined predicate %s", c.tab.FuncString(fx.fn)))
		}
	}
	c.fixups = c.fixups[:0]
}

func (c *Compiler) emit(ins wam.Instr) int {
	c.mod.Code = append(c.mod.Code, ins)
	return len(c.mod.Code) - 1
}

func (c *Compiler) here() int { return len(c.mod.Code) }

// argKind classifies a head's first argument for indexing.
type argKind uint8

const (
	kindVar argKind = iota
	kindConst
	kindList
	kindStruct
)

func (c *Compiler) firstArgKind(cl term.Clause) (argKind, wam.ConstKey, term.Functor) {
	if cl.Head.Kind != term.KStruct {
		return kindVar, wam.ConstKey{}, term.Functor{}
	}
	a := cl.Head.Args[0]
	switch a.Kind {
	case term.KVar:
		return kindVar, wam.ConstKey{}, term.Functor{}
	case term.KInt:
		return kindConst, wam.ConstKey{IsInt: true, I: a.Int}, term.Functor{}
	case term.KAtom:
		return kindConst, wam.ConstKey{A: a.Fn.Name}, term.Functor{}
	case term.KStruct:
		if c.tab.IsCons(a) {
			return kindList, wam.ConstKey{}, term.Functor{}
		}
		return kindStruct, wam.ConstKey{}, a.Fn
	}
	return kindVar, wam.ConstKey{}, term.Functor{}
}

func (c *Compiler) compileProc(f term.Functor, clauses []term.Clause) error {
	if len(clauses) == 0 {
		return fmt.Errorf("compiler: predicate %s has no clauses", c.tab.FuncString(f))
	}
	proc := &wam.Proc{Fn: f}
	c.mod.Procs[f] = proc
	c.mod.Order = append(c.mod.Order, f)
	start := c.here()

	// Decide whether to index: at least two clauses, arity >= 1, and no
	// clause with a variable first argument (a simplification of the full
	// WAM's segmented indexing).
	indexable := c.opts.Indexing && len(clauses) >= 2 && f.Arity >= 1
	if indexable {
		for _, cl := range clauses {
			if k, _, _ := c.firstArgKind(cl); k == kindVar {
				indexable = false
				break
			}
		}
	}

	var switchAddr int
	if indexable {
		switchAddr = c.mod.EmitSwitch(wam.OpSwitchOnTerm, wam.Switch{})
	}

	// Emit the try_me_else chain with clause bodies.
	clauseAddrs := make([]int, len(clauses))
	var chainFixups []int
	chainStart := c.here()
	for i, cl := range clauses {
		if len(clauses) > 1 {
			switch {
			case i == 0:
				chainFixups = append(chainFixups, c.emit(wam.Instr{Op: wam.OpTryMeElse}))
			case i == len(clauses)-1:
				c.emit(wam.Instr{Op: wam.OpTrustMe})
			default:
				chainFixups = append(chainFixups, c.emit(wam.Instr{Op: wam.OpRetryMeElse}))
			}
		}
		clauseAddrs[i] = c.here()
		envSize, err := c.compileClause(cl)
		if err != nil {
			return fmt.Errorf("%s clause %d: %w", c.tab.FuncString(f), i+1, err)
		}
		proc.EnvSizes = append(proc.EnvSizes, envSize)
		// Patch the preceding try/retry to point at the next choice
		// instruction (emitted on the next loop iteration).
		if len(chainFixups) > 0 && i < len(clauses)-1 {
			c.mod.Code[chainFixups[len(chainFixups)-1]].L = c.here()
		}
	}
	proc.Clauses = clauseAddrs

	if indexable {
		c.buildSwitch(switchAddr, chainStart, clauses, clauseAddrs)
		proc.Entry = switchAddr
	} else {
		proc.Entry = start
	}
	proc.Profile.Instructions = c.here() - start
	return nil
}

// buildSwitch fills in the switch_on_term at switchAddr and appends any
// needed dispatch tables and try/retry/trust blocks.
func (c *Compiler) buildSwitch(switchAddr, chainStart int, clauses []term.Clause, clauseAddrs []int) {
	var constKeys []wam.ConstKey
	constBuckets := make(map[wam.ConstKey][]int)
	var listBucket []int
	var structKeys []term.Functor
	structBuckets := make(map[term.Functor][]int)
	for i, cl := range clauses {
		k, ck, sf := c.firstArgKind(cl)
		switch k {
		case kindConst:
			if _, seen := constBuckets[ck]; !seen {
				constKeys = append(constKeys, ck)
			}
			constBuckets[ck] = append(constBuckets[ck], clauseAddrs[i])
		case kindList:
			listBucket = append(listBucket, clauseAddrs[i])
		case kindStruct:
			if _, seen := structBuckets[sf]; !seen {
				structKeys = append(structKeys, sf)
			}
			structBuckets[sf] = append(structBuckets[sf], clauseAddrs[i])
		}
	}

	target := func(addrs []int) int {
		switch len(addrs) {
		case 0:
			return wam.FailAddr
		case 1:
			return addrs[0]
		default:
			blk := c.here()
			for i, a := range addrs {
				switch {
				case i == 0:
					c.emit(wam.Instr{Op: wam.OpTry, L: a})
				case i == len(addrs)-1:
					c.emit(wam.Instr{Op: wam.OpTrust, L: a})
				default:
					c.emit(wam.Instr{Op: wam.OpRetry, L: a})
				}
			}
			return blk
		}
	}

	lc := wam.FailAddr
	if len(constKeys) == 1 && len(constBuckets[constKeys[0]]) >= 1 {
		lc = target(constBuckets[constKeys[0]])
		// Still need the key check: a different constant must fail. A
		// one-entry dispatch table keeps that exact.
		tbl := map[wam.ConstKey]int{constKeys[0]: lc}
		lc = c.mod.EmitSwitch(wam.OpSwitchOnConst, wam.Switch{TblC: tbl})
	} else if len(constKeys) > 1 {
		tbl := make(map[wam.ConstKey]int, len(constKeys))
		for _, k := range constKeys {
			tbl[k] = target(constBuckets[k])
		}
		lc = c.mod.EmitSwitch(wam.OpSwitchOnConst, wam.Switch{TblC: tbl})
	}

	ll := target(listBucket)

	ls := wam.FailAddr
	if len(structKeys) == 1 {
		t := target(structBuckets[structKeys[0]])
		tbl := map[term.Functor]int{structKeys[0]: t}
		ls = c.mod.EmitSwitch(wam.OpSwitchOnStruct, wam.Switch{TblS: tbl})
	} else if len(structKeys) > 1 {
		tbl := make(map[term.Functor]int, len(structKeys))
		for _, k := range structKeys {
			tbl[k] = target(structBuckets[k])
		}
		ls = c.mod.EmitSwitch(wam.OpSwitchOnStruct, wam.Switch{TblS: tbl})
	}

	sw := c.mod.Switch(c.mod.Code[switchAddr])
	sw.LV, sw.LC, sw.LL, sw.LS = chainStart, lc, ll, ls
}
