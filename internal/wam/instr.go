// Package wam defines the Warren Abstract Machine instruction set shared
// by the compiler, the concrete machine and the abstract analyzer, along
// with the compiled-module container, the builtin registry and a
// disassembler.
//
// The instruction classes follow Warren's report (and Section 2.1 of the
// paper): get, put, unify, procedural and indexing instructions. Operands
// are held unencoded in a pointer-free Instr word; a code address is an
// index into the module's flat Code slice, and an indexing instruction's
// tables live in the module's Switches side table.
package wam

import (
	"fmt"
	"sort"
	"strings"

	"awam/internal/term"
)

// Op enumerates WAM operations.
type Op uint8

const (
	// OpNop does nothing (assembler padding).
	OpNop Op = iota

	// Get instructions: head-argument unification. A1 is the argument
	// register Ai.
	OpGetVarX   // get_variable Xn, Ai     (A2 = n)
	OpGetVarY   // get_variable Yn, Ai     (A2 = n)
	OpGetValX   // get_value Xn, Ai
	OpGetValY   // get_value Yn, Ai
	OpGetConst  // get_constant c, Ai      (Fn.Name = c)
	OpGetInt    // get_integer i, Ai       (I = i)
	OpGetNil    // get_nil Ai
	OpGetList   // get_list Ai
	OpGetStruct // get_structure f/n, Ai  (Fn = f/n)

	// Put instructions: body-argument construction. A1 is Ai.
	OpPutVarX   // put_variable Xn, Ai (fresh heap cell; both registers set)
	OpPutVarY   // put_variable Yn, Ai (fresh heap cell stored in Yn)
	OpPutValX   // put_value Xn, Ai
	OpPutValY   // put_value Yn, Ai
	OpPutConst  // put_constant c, Ai
	OpPutInt    // put_integer i, Ai
	OpPutNil    // put_nil Ai
	OpPutList   // put_list Ai
	OpPutStruct // put_structure f/n, Ai

	// Unify instructions: subterm unification in read/write mode.
	OpUnifyVarX  // unify_variable Xn
	OpUnifyVarY  // unify_variable Yn
	OpUnifyValX  // unify_value Xn
	OpUnifyValY  // unify_value Yn
	OpUnifyConst // unify_constant c
	OpUnifyInt   // unify_integer i
	OpUnifyNil   // unify_nil
	OpUnifyVoid  // unify_void n            (A2 = count)

	// Procedural instructions.
	OpAllocate   // allocate n              (A2 = environment size)
	OpDeallocate // deallocate
	OpCall       // call f/n                (Fn, L = entry address)
	OpExecute    // execute f/n             (Fn, L) — last-call optimization
	OpProceed    // proceed
	OpBuiltin    // builtin b, n            (A1 = BuiltinID, A2 = arity)
	OpHalt       // halt — query sentinel return address

	// Cut support.
	OpNeckCut  // cut choice points created since predicate entry
	OpGetLevel // get_level Yn             (A2 = n) — save cut barrier
	OpCutTo    // cut Yn                   (A2 = n) — deep cut

	// Choice instructions.
	OpTryMeElse   // try_me_else L
	OpRetryMeElse // retry_me_else L
	OpTrustMe     // trust_me
	OpTry         // try L   (alternative = next instruction)
	OpRetry       // retry L
	OpTrust       // trust L

	// Indexing instructions.
	OpSwitchOnTerm   // switch_on_term Lv, Lc, Ll, Ls
	OpSwitchOnConst  // switch_on_constant table
	OpSwitchOnStruct // switch_on_structure table

	// Specialized instructions emitted by internal/optimize when the
	// dataflow analysis proves an argument non-variable at every call:
	// the variable (write-mode / binding) paths are compiled away.
	OpGetConstCmp   // get_constant, argument known nonvar: compare only
	OpGetIntCmp     // get_integer, known nonvar
	OpGetNilCmp     // get_nil, known nonvar
	OpGetListRead   // get_list, known nonvar: read mode only
	OpGetStructRead // get_structure, known nonvar: read mode only

	// NumOps is the opcode count — the size of per-opcode histogram
	// arrays. Keep it last.
	NumOps
)

// opNames maps opcodes to their disassembly mnemonics (X/Y register
// variants are distinguished so per-opcode histograms stay precise).
var opNames = [NumOps]string{
	OpNop:            "nop",
	OpGetVarX:        "get_variable_x",
	OpGetVarY:        "get_variable_y",
	OpGetValX:        "get_value_x",
	OpGetValY:        "get_value_y",
	OpGetConst:       "get_constant",
	OpGetInt:         "get_integer",
	OpGetNil:         "get_nil",
	OpGetList:        "get_list",
	OpGetStruct:      "get_structure",
	OpPutVarX:        "put_variable_x",
	OpPutVarY:        "put_variable_y",
	OpPutValX:        "put_value_x",
	OpPutValY:        "put_value_y",
	OpPutConst:       "put_constant",
	OpPutInt:         "put_integer",
	OpPutNil:         "put_nil",
	OpPutList:        "put_list",
	OpPutStruct:      "put_structure",
	OpUnifyVarX:      "unify_variable_x",
	OpUnifyVarY:      "unify_variable_y",
	OpUnifyValX:      "unify_value_x",
	OpUnifyValY:      "unify_value_y",
	OpUnifyConst:     "unify_constant",
	OpUnifyInt:       "unify_integer",
	OpUnifyNil:       "unify_nil",
	OpUnifyVoid:      "unify_void",
	OpAllocate:       "allocate",
	OpDeallocate:     "deallocate",
	OpCall:           "call",
	OpExecute:        "execute",
	OpProceed:        "proceed",
	OpBuiltin:        "builtin",
	OpHalt:           "halt",
	OpNeckCut:        "neck_cut",
	OpGetLevel:       "get_level",
	OpCutTo:          "cut",
	OpTryMeElse:      "try_me_else",
	OpRetryMeElse:    "retry_me_else",
	OpTrustMe:        "trust_me",
	OpTry:            "try",
	OpRetry:          "retry",
	OpTrust:          "trust",
	OpSwitchOnTerm:   "switch_on_term",
	OpSwitchOnConst:  "switch_on_constant",
	OpSwitchOnStruct: "switch_on_structure",
	OpGetConstCmp:    "get_constant*",
	OpGetIntCmp:      "get_integer*",
	OpGetNilCmp:      "get_nil*",
	OpGetListRead:    "get_list*",
	OpGetStructRead:  "get_structure*",
}

// String returns the opcode's mnemonic.
func (o Op) String() string {
	if o < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// FailAddr is the pseudo-address meaning "backtrack" in switch targets.
const FailAddr = -1

// ConstKey identifies a constant in switch_on_constant tables.
type ConstKey struct {
	IsInt bool
	I     int64
	A     term.Atom
}

// Instr is one decoded WAM instruction: 56 bytes and pointer-free, so a
// module's code array is one flat allocation the garbage collector never
// scans. A switch instruction keeps its indexing operands in the
// module's side table; its L is the index of that entry.
type Instr struct {
	Op Op
	A1 int          // argument register Ai, or builtin id
	A2 int          // Xn/Yn register, arity, env size, void count
	Fn term.Functor // functor/constant operand
	I  int64        // integer operand
	L  int          // code-address operand; for a switch, its Module.Switches index
}

// MaxRegister is the largest register operand (A1 or A2) a compiled
// clause may use. The compiler rejects clauses that need more, and the
// abstract machine's transfer stream encodes register operands in 16
// bits.
const MaxRegister = 0xFFFF

// Switch holds the operands of one indexing instruction.
type Switch struct {
	// Switch targets (OpSwitchOnTerm).
	LV, LC, LL, LS int
	// Constant/functor dispatch tables.
	TblC map[ConstKey]int
	TblS map[term.Functor]int
	// LD is the dispatch-table default: where OpSwitchOnConst and
	// OpSwitchOnStruct jump when the key is absent from the table. The
	// zero value means "no default — fail", which is what the compiler
	// emits (its tables are complete for the clause set). The optimizer's
	// analysis-directed indexing pass sets LD to the block of clauses
	// with variable first head arguments, which match any key; such
	// blocks are appended at the end of the code array, so a real
	// default target is never address 0.
	LD int
}

// Proc is one compiled predicate.
type Proc struct {
	Fn term.Functor
	// Entry is the address the concrete machine jumps to: the indexing
	// preamble when present, else the first choice instruction or single
	// clause.
	Entry int
	// Clauses holds the address of each clause's code, *after* its
	// try/retry/trust instruction, in source order. The abstract machine
	// enumerates these directly (the paper folds backtracking-point
	// management into call/proceed rather than try/trust).
	Clauses []int
	// EnvSizes[i] is the environment size of clause i (0 when the clause
	// does not allocate); used by diagnostics only.
	EnvSizes []int
	// NumClauses is len(Clauses); kept for cheap stats.
	Profile ProcProfile
}

// ProcProfile carries static per-predicate statistics for reports.
type ProcProfile struct {
	Instructions int
}

// Module is a compiled program: a flat code array plus the procedure map.
type Module struct {
	Tab  *term.Tab
	Code []Instr
	// Switches is the side table of indexing operands, one entry per
	// switch instruction, indexed by that instruction's L.
	Switches []Switch
	Procs    map[term.Functor]*Proc
	Order    []term.Functor // definition order
}

// Clone deep-copies the structure that optimizer passes and query
// compilation mutate: the code array, the switch side table, the
// procedure map and each Proc's slices. The symbol table and the
// dispatch maps inside switch entries (TblC/TblS) are shared — passes
// emit fresh switches rather than editing tables in place.
func (m *Module) Clone() *Module {
	out := &Module{
		Tab:      m.Tab,
		Code:     append([]Instr(nil), m.Code...),
		Switches: append([]Switch(nil), m.Switches...),
		Procs:    make(map[term.Functor]*Proc, len(m.Procs)),
		Order:    append([]term.Functor(nil), m.Order...),
	}
	for fn, p := range m.Procs {
		np := *p
		np.Clauses = append([]int(nil), p.Clauses...)
		np.EnvSizes = append([]int(nil), p.EnvSizes...)
		out.Procs[fn] = &np
	}
	return out
}

// Switch returns the operands of switch instruction ins.
func (m *Module) Switch(ins Instr) *Switch { return &m.Switches[ins.L] }

// EmitSwitch appends a switch instruction of kind op with operands sw
// and returns its address.
func (m *Module) EmitSwitch(op Op, sw Switch) int {
	m.Switches = append(m.Switches, sw)
	m.Code = append(m.Code, Instr{Op: op, L: len(m.Switches) - 1})
	return len(m.Code) - 1
}

// Proc returns the procedure for f, or nil when undefined.
func (m *Module) Proc(f term.Functor) *Proc { return m.Procs[f] }

// OwnerOf returns the predicate whose code contains addr (procedures are
// laid out contiguously in definition order).
func (m *Module) OwnerOf(addr int) (term.Functor, bool) {
	var best term.Functor
	bestEntry := -1
	for _, fn := range m.Order {
		p := m.Procs[fn]
		if p.Entry <= addr && p.Entry > bestEntry {
			best = fn
			bestEntry = p.Entry
		}
	}
	return best, bestEntry >= 0
}

// Size returns the static code size in instructions — the paper's Table 1
// "Size" column.
func (m *Module) Size() int { return len(m.Code) }

// BuiltinID identifies an inline builtin predicate.
type BuiltinID int

// Builtin predicates required by the benchmark suite.
const (
	BIIs       BuiltinID = iota // is/2
	BILt                        // </2
	BILe                        // =</2
	BIGt                        // >/2
	BIGe                        // >=/2
	BIArithEq                   // =:=/2
	BIArithNe                   // =\=/2
	BIUnify                     // =/2
	BINotUnify                  // \=/2
	BIEq                        // ==/2
	BINotEq                     // \==/2
	BIVar                       // var/1
	BINonvar                    // nonvar/1
	BIAtom                      // atom/1
	BIInteger                   // integer/1
	BIAtomic                    // atomic/1
	BITrue                      // true/0
	BIFail                      // fail/0
	BIWrite                     // write/1
	BINl                        // nl/0
	BIFunctor                   // functor/3
	BIArg                       // arg/3
	BIHalt                      // halt/0
	BICompare                   // compare/3 (standard order of terms)
	BITermLt                    // @</2
	BITermLe                    // @=</2
	BITermGt                    // @>/2
	BITermGe                    // @>=/2
	BILength                    // length/2
	BIAssert                    // assert/1 (facts only)
	BIRetract                   // retract/1 (facts only)
	NumBuiltins
)

var builtinNames = map[BuiltinID]struct {
	name  string
	arity int
}{
	BIIs:       {"is", 2},
	BILt:       {"<", 2},
	BILe:       {"=<", 2},
	BIGt:       {">", 2},
	BIGe:       {">=", 2},
	BIArithEq:  {"=:=", 2},
	BIArithNe:  {"=\\=", 2},
	BIUnify:    {"=", 2},
	BINotUnify: {"\\=", 2},
	BIEq:       {"==", 2},
	BINotEq:    {"\\==", 2},
	BIVar:      {"var", 1},
	BINonvar:   {"nonvar", 1},
	BIAtom:     {"atom", 1},
	BIInteger:  {"integer", 1},
	BIAtomic:   {"atomic", 1},
	BITrue:     {"true", 0},
	BIFail:     {"fail", 0},
	BIWrite:    {"write", 1},
	BINl:       {"nl", 0},
	BIFunctor:  {"functor", 3},
	BIArg:      {"arg", 3},
	BIHalt:     {"halt", 0},
	BICompare:  {"compare", 3},
	BITermLt:   {"@<", 2},
	BITermLe:   {"@=<", 2},
	BITermGt:   {"@>", 2},
	BITermGe:   {"@>=", 2},
	BILength:   {"length", 2},
	BIAssert:   {"assert", 1},
	BIRetract:  {"retract", 1},
}

// BuiltinName returns the predicate-indicator spelling of a builtin.
func BuiltinName(id BuiltinID) string {
	bi := builtinNames[id]
	return fmt.Sprintf("%s/%d", bi.name, bi.arity)
}

// Builtins returns the functor->id table for tab. The compiler consults
// it to emit OpBuiltin instead of OpCall.
func Builtins(tab *term.Tab) map[term.Functor]BuiltinID {
	out := make(map[term.Functor]BuiltinID, len(builtinNames))
	for id, bi := range builtinNames {
		out[tab.Func(bi.name, bi.arity)] = id
	}
	return out
}

// Disasm renders the module's code with addresses and procedure labels.
// The output is accepted back by Assemble.
func (m *Module) Disasm() string {
	entryLabels := make(map[int][]string)
	clauseLabels := make(map[int][]string)
	for _, f := range m.Order {
		p := m.Procs[f]
		entryLabels[p.Entry] = append(entryLabels[p.Entry], m.Tab.FuncString(f))
		for i, c := range p.Clauses {
			clauseLabels[c] = append(clauseLabels[c],
				fmt.Sprintf("%s clause %d", m.Tab.FuncString(f), i+1))
		}
	}
	var b strings.Builder
	for addr, ins := range m.Code {
		for _, lbl := range entryLabels[addr] {
			fmt.Fprintf(&b, "%% %s:\n", lbl)
		}
		for _, lbl := range clauseLabels[addr] {
			fmt.Fprintf(&b, "%% %s:\n", lbl)
		}
		fmt.Fprintf(&b, "%5d  %s\n", addr, m.DisasmInstr(ins))
	}
	return b.String()
}

// switchEntry is one rendered switch-table branch.
type switchEntry struct {
	key  string
	addr int
}

// joinSwitchEntries renders switch-table branches sorted by target
// address (clause order), tie-broken by key, so disassembly output is
// deterministic despite the tables being Go maps.
func joinSwitchEntries(ents []switchEntry) string {
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].addr != ents[j].addr {
			return ents[i].addr < ents[j].addr
		}
		return ents[i].key < ents[j].key
	})
	parts := make([]string, len(ents))
	for i, e := range ents {
		parts[i] = fmt.Sprintf("%s->%d", e.key, e.addr)
	}
	return strings.Join(parts, ", ")
}

// switchDefault renders a dispatch table's default target; empty for
// the compiler's complete tables (LD zero), so pre-optimizer listings
// are byte-identical to earlier revisions.
func switchDefault(sw *Switch) string {
	if sw.LD == 0 {
		return ""
	}
	return fmt.Sprintf(" default %d", sw.LD)
}

// DisasmInstr renders one instruction of m; a switch's operands are read
// from m.Switches.
func (m *Module) DisasmInstr(ins Instr) string {
	switch ins.Op {
	case OpSwitchOnTerm, OpSwitchOnConst, OpSwitchOnStruct:
		return m.DisasmWith(ins, m.Switch(ins))
	}
	return m.DisasmWith(ins, nil)
}

// DisasmWith renders ins with sw as its switch operands (nil for other
// instructions). It lets a caller render a switch whose operands were
// rewritten outside the side table, such as a position-independent
// listing.
func (m *Module) DisasmWith(ins Instr, sw *Switch) string {
	t := m.Tab
	switch ins.Op {
	case OpNop:
		return "nop"
	case OpGetVarX:
		return fmt.Sprintf("get_variable X%d, A%d", ins.A2, ins.A1)
	case OpGetVarY:
		return fmt.Sprintf("get_variable Y%d, A%d", ins.A2, ins.A1)
	case OpGetValX:
		return fmt.Sprintf("get_value X%d, A%d", ins.A2, ins.A1)
	case OpGetValY:
		return fmt.Sprintf("get_value Y%d, A%d", ins.A2, ins.A1)
	case OpGetConst:
		return fmt.Sprintf("get_constant %s, A%d", t.Name(ins.Fn.Name), ins.A1)
	case OpGetInt:
		return fmt.Sprintf("get_integer %d, A%d", ins.I, ins.A1)
	case OpGetNil:
		return fmt.Sprintf("get_nil A%d", ins.A1)
	case OpGetList:
		return fmt.Sprintf("get_list A%d", ins.A1)
	case OpGetStruct:
		return fmt.Sprintf("get_structure %s, A%d", t.FuncString(ins.Fn), ins.A1)
	case OpPutVarX:
		return fmt.Sprintf("put_variable X%d, A%d", ins.A2, ins.A1)
	case OpPutVarY:
		return fmt.Sprintf("put_variable Y%d, A%d", ins.A2, ins.A1)
	case OpPutValX:
		return fmt.Sprintf("put_value X%d, A%d", ins.A2, ins.A1)
	case OpPutValY:
		return fmt.Sprintf("put_value Y%d, A%d", ins.A2, ins.A1)
	case OpPutConst:
		return fmt.Sprintf("put_constant %s, A%d", t.Name(ins.Fn.Name), ins.A1)
	case OpPutInt:
		return fmt.Sprintf("put_integer %d, A%d", ins.I, ins.A1)
	case OpPutNil:
		return fmt.Sprintf("put_nil A%d", ins.A1)
	case OpPutList:
		return fmt.Sprintf("put_list A%d", ins.A1)
	case OpPutStruct:
		return fmt.Sprintf("put_structure %s, A%d", t.FuncString(ins.Fn), ins.A1)
	case OpUnifyVarX:
		return fmt.Sprintf("unify_variable X%d", ins.A2)
	case OpUnifyVarY:
		return fmt.Sprintf("unify_variable Y%d", ins.A2)
	case OpUnifyValX:
		return fmt.Sprintf("unify_value X%d", ins.A2)
	case OpUnifyValY:
		return fmt.Sprintf("unify_value Y%d", ins.A2)
	case OpUnifyConst:
		return fmt.Sprintf("unify_constant %s", t.Name(ins.Fn.Name))
	case OpUnifyInt:
		return fmt.Sprintf("unify_integer %d", ins.I)
	case OpUnifyNil:
		return "unify_nil"
	case OpUnifyVoid:
		return fmt.Sprintf("unify_void %d", ins.A2)
	case OpAllocate:
		return fmt.Sprintf("allocate %d", ins.A2)
	case OpDeallocate:
		return "deallocate"
	case OpCall:
		return fmt.Sprintf("call %s", t.FuncString(ins.Fn))
	case OpExecute:
		return fmt.Sprintf("execute %s", t.FuncString(ins.Fn))
	case OpProceed:
		return "proceed"
	case OpBuiltin:
		return fmt.Sprintf("builtin %s", BuiltinName(BuiltinID(ins.A1)))
	case OpHalt:
		return "halt"
	case OpNeckCut:
		return "neck_cut"
	case OpGetLevel:
		return fmt.Sprintf("get_level Y%d", ins.A2)
	case OpCutTo:
		return fmt.Sprintf("cut Y%d", ins.A2)
	case OpTryMeElse:
		return fmt.Sprintf("try_me_else %d", ins.L)
	case OpRetryMeElse:
		return fmt.Sprintf("retry_me_else %d", ins.L)
	case OpTrustMe:
		return "trust_me"
	case OpTry:
		return fmt.Sprintf("try %d", ins.L)
	case OpRetry:
		return fmt.Sprintf("retry %d", ins.L)
	case OpTrust:
		return fmt.Sprintf("trust %d", ins.L)
	case OpSwitchOnTerm:
		return fmt.Sprintf("switch_on_term var:%d const:%d list:%d struct:%d", sw.LV, sw.LC, sw.LL, sw.LS)
	case OpSwitchOnConst:
		// Render in clause (target-address) order, not map order: the
		// disassembly is compared byte for byte by the golden tests.
		ents := make([]switchEntry, 0, len(sw.TblC))
		for k, v := range sw.TblC {
			if k.IsInt {
				ents = append(ents, switchEntry{fmt.Sprintf("%d", k.I), v})
			} else {
				ents = append(ents, switchEntry{t.Name(k.A), v})
			}
		}
		return "switch_on_constant {" + joinSwitchEntries(ents) + "}" + switchDefault(sw)
	case OpSwitchOnStruct:
		ents := make([]switchEntry, 0, len(sw.TblS))
		for k, v := range sw.TblS {
			ents = append(ents, switchEntry{t.FuncString(k), v})
		}
		return "switch_on_structure {" + joinSwitchEntries(ents) + "}" + switchDefault(sw)
	case OpGetConstCmp:
		return fmt.Sprintf("get_constant* %s, A%d", t.Name(ins.Fn.Name), ins.A1)
	case OpGetIntCmp:
		return fmt.Sprintf("get_integer* %d, A%d", ins.I, ins.A1)
	case OpGetNilCmp:
		return fmt.Sprintf("get_nil* A%d", ins.A1)
	case OpGetListRead:
		return fmt.Sprintf("get_list* A%d", ins.A1)
	case OpGetStructRead:
		return fmt.Sprintf("get_structure* %s, A%d", t.FuncString(ins.Fn), ins.A1)
	}
	return fmt.Sprintf("op(%d)", ins.Op)
}
