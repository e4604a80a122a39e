// Package specialize compiles the abstract machine's clause code into
// per-SCC specialized transfer streams — the "compile the interpreter
// away" stage between compilation and fixpoint execution.
//
// The streams are the only executable form of clause code: the
// abstract WAM (internal/core/exec.go) runs every clause through one
// dense dispatch loop over them, never over the 120-byte wam.Instr
// array. This package flattens each condensation component's clauses
// into one contiguous stream of compact 16-byte SInstr words with all
// operands pre-resolved at specialize time:
//
//   - constant operands (get/put/unify constants, integers, nil) become
//     indices into a per-component rt.Cell pool, so the hot loop never
//     re-boxes a constant;
//   - structure functors become indices into a functor pool;
//   - call sites become CallRef records that carry the callee's
//     component and clause-stream offsets (intra-SCC calls are fully
//     pre-resolved; the extension-table consult remains the call's
//     semantics);
//   - call sites whose argument registers are provably rebuilt from
//     constants and fresh variables on every execution are marked
//     static: the engine computes their calling pattern once per
//     analysis and never touches the abstractor or the interner for
//     them again (no interner round-trips on the hot path);
//   - dominant get_*/unify_* opcode pairs are fused into superinstruction
//     words with hand-written combined transfer functions (fusion.go),
//     selected per component from the Metrics opcode histogram.
//
// The zero Options give the plain stream: one word per wam
// instruction, no fusion, no pre-interning — what internal/core builds
// for itself when no specialized program is supplied. Every other
// configuration is an execution plan over the same semantics: the
// engine charges the step budget, the opcode histogram and the Tracer
// per original base opcode, so results, Steps and Metrics are
// byte-for-byte identical across configurations. Build is total: code
// the translator cannot turn into a straight-line transfer becomes a
// trap word that fails the analysis only if it is executed.
package specialize

import (
	"fmt"
	"strconv"
	"sync"

	"awam/internal/rt"
	"awam/internal/term"
	"awam/internal/wam"
)

// Version is the specialization format/semantics version. It salts the
// incremental engine's component fingerprints (via Program.Salt), so
// cached summaries produced by one specializer generation are never
// served to another. v2 salts each component with its own fusion mask
// instead of a hash over the whole program's components.
const Version = 2

// SOp enumerates the specialized stream operations. The set mirrors the
// clause-body subset of wam.Op with operands pre-resolved, plus the
// fused superinstructions.
type SOp uint8

const (
	SNop SOp = iota

	// Head/get operations. A is the argument register.
	SGetVarX   // x[B] = x[A]
	SGetVarY   // env[B] = x[A]
	SGetValX   // absUnify(x[B], x[A])
	SGetValY   // absUnify(env[B], x[A])
	SGetCell   // absUnify(x[A], Cells[K])
	SGetList   // s,mode = getList(x[A])
	SGetStruct // s,mode = getStruct(x[A], Fns[K])

	// Put operations.
	SPutVarX   // fresh var; x[B] = x[A] = ref
	SPutVarY   // fresh var; env[B], x[A]
	SPutValX   // x[A] = x[B]
	SPutValY   // x[A] = env[B]
	SPutCell   // x[A] = Cells[K]
	SPutList   // x[A] = list(heap top); write mode
	SPutStruct // push functor Fns[K]; x[A] = str; write mode

	// Unify operations (mode-dependent).
	SUnifyVarX // A = Xn
	SUnifyVarY // A = Yn
	SUnifyValX // A = Xn
	SUnifyValY // A = Yn
	SUnifyCell // Cells[K]
	SUnifyVoid // A = count

	// Procedural operations.
	SAllocate   // A = environment size
	SDeallocate //
	SCall       // Calls[K]
	SExecute    // Calls[K], then return
	SProceed    //
	SBuiltin    // A = builtin id, B = arity
	SHalt       //
	SCutNop     // neck_cut / get_level / cut: charged no-ops
	STrap       // untranslatable code at wam address K, reason A (Trap*)

	// Fused superinstructions (fusion.go). Each charges its base
	// opcodes individually (W, W1, W2), so step totals and the opcode
	// histogram are invariant under fusion.
	SFGetList2   // get_list A + two unify slots (M, B, C)
	SFGetStruct2 // get_structure Fns[K], A + two unify slots
	SFPutList2   // put_list A + two write-mode unify slots
	SFPutStruct2 // put_structure Fns[K], A + two write-mode unify slots

	NumSOps
)

// Slot kinds for fused superinstruction operand slots, packed into
// SInstr.M (slot 1 = M&3, slot 2 = (M>>2)&3).
const (
	SlotVarX = 0 // operand is an X register: unify_variable_x
	SlotValX = 1 // operand is an X register: unify_value_x
	SlotCell = 2 // operand is a Cells pool index: unify_constant/int/nil
)

// Trap reasons, carried in a trap word's A operand. A trap charges W
// (the untranslatable wam opcode; wam.OpNop past the end of the code)
// and then fails the analysis.
const (
	// TrapOpcode: a choice or indexing instruction inside a clause body.
	TrapOpcode = iota
	// TrapRegister: a register operand that does not fit in 16 bits.
	TrapRegister
	// TrapEnd: the clause runs off the end of the code.
	TrapEnd
)

// SInstr is one specialized stream word: 16 bytes versus the ~120-byte
// wam.Instr it is translated from.
type SInstr struct {
	Op SOp
	// W is the original wam opcode this word charges to the step budget
	// and opcode histogram (the anchor opcode for fused words); W1/W2
	// are the fused slots' charge opcodes.
	W, W1, W2 wam.Op
	// M packs the fused slot kinds.
	M uint8
	// A, B, C are register/count operands; K indexes the component
	// pools (Cells, Fns, Calls) and carries fused cell-slot operands.
	A, B, C uint16
	K       int32
}

// CallRef is a pre-resolved call site.
type CallRef struct {
	Fn term.Functor
	// Comp is the callee's component index, -1 for undefined predicates
	// (intra-SCC calls have Comp == the caller's component: the callee's
	// clause offsets live in the same stream).
	Comp int32
	// Clause0 is the callee's first ClauseInfo index within Comp's
	// stream (-1 when the callee has no specialized clauses).
	Clause0 int32
	// Static is the site's index into its component's static-pattern
	// cache (numbered per component, below CompStream.StaticSites) when
	// the builder proved the call's argument registers are rebuilt from
	// constants and fresh variables on every execution (the calling
	// pattern is context-independent); -1 otherwise.
	Static int32
}

// ClauseInfo locates one specialized clause inside its component stream.
type ClauseInfo struct {
	Fn term.Functor
	// Addr is the clause's address in the original wam code array.
	Addr int32
	// Off is the clause's first instruction in CompStream.Code.
	Off int32
	// MaxX is the clause's X-register high-water mark; the engine
	// ensures the register file once per clause instead of per
	// instruction.
	MaxX uint16
	// Fused counts superinstructions emitted into this clause.
	Fused uint16
}

// CompStream is one condensation component compiled to a contiguous
// specialized stream with its operand pools. Index, Members and
// FusionMask are set by Build; the stream, its pools, its clause table
// and StaticSites are filled when the component is first obtained
// through Program.Comp (Clauses stays nil until then).
type CompStream struct {
	Index   int
	Members []term.Functor
	Code    []SInstr
	Cells   []rt.Cell
	Fns     []term.Functor
	Calls   []CallRef
	Clauses []ClauseInfo
	// StaticSites is the number of static call sites in this component;
	// the engine sizes the component's static-pattern cache by it.
	StaticSites int
	// FusionMask is the enabled fusion-rule bitmask chosen for this
	// component by the profile policy (fusion.go).
	FusionMask uint32

	// once guards the translation of pending, the component's clauses
	// in ClauseInfo order; a Program is shared by concurrent analyses.
	once    sync.Once
	pending []clauseRef
}

// Loc addresses one specialized clause: the component and its
// ClauseInfo index. Comp < 0 means the clause lies outside the
// program's components.
type Loc struct {
	Comp   int32
	Clause int32
}

// Options selects the specialization stages, the axes of the benchtab
// ablation. The zero value is flatten-only: compact streams, dense
// dispatch, pre-resolved operands and hoisted register growth, but no
// superinstructions and no pattern pre-interning.
type Options struct {
	// Fuse enables profile-guided superinstruction fusion.
	Fuse bool
	// PreIntern marks static call sites: calls whose arguments the
	// builder proves are rebuilt identically on every execution. The
	// engine abstracts and interns such a site's calling pattern once
	// per analysis instead of on every call (CallRef.Static).
	PreIntern bool
}

// Program is a module's specialized transfer streams. It is safe for
// concurrent use: each component is translated once, on first use.
type Program struct {
	Opts Options
	// Comps lists the components in Build's order. Read a component's
	// stream through Comp, which translates it first.
	Comps []*CompStream

	mod    *wam.Module
	compOf map[term.Functor]int
	locs   []Loc
	// static holds the static profile's totals of a program from
	// BuildStatic or Derive; nil otherwise.
	static *staticTotals
}

// Comp returns component i with its stream translated.
func (p *Program) Comp(i int) *CompStream {
	cs := p.Comps[i]
	cs.once.Do(func() { p.translate(cs) })
	return cs
}

// Loc returns the specialized location of the clause at the given wam
// code address, or a Loc with Comp < 0 when the clause belongs to no
// component the program was built over.
func (p *Program) Loc(addr int) Loc {
	if addr < 0 || addr >= len(p.locs) {
		return Loc{Comp: -1, Clause: -1}
	}
	return p.locs[addr]
}

// Salt is the part of the incremental engine's fingerprint salt that
// every component shares: the specializer version and options, so
// cached summaries from a plain-stream run (no Config.Spec) and from
// specialized runs of different generations live at different store
// addresses. CompSalt adds each component's own fusion set.
func (p *Program) Salt() string {
	return fmt.Sprintf("spec=v%d:fuse=%t:pre=%t", Version, p.Opts.Fuse, p.Opts.PreIntern)
}

// CompSalt is the per-component part of the fingerprint salt: the
// fusion masks of the streams that hold the given predicates (0 for a
// predicate outside every component). It changes only when those
// components' fusion sets change, so adding or editing an unrelated
// predicate leaves the salt — and the stored records — of every other
// component alone, unless the edit moves a component across the
// profile's hotness threshold (enabledMask).
func (p *Program) CompSalt(members []term.Functor) string {
	buf := make([]byte, 0, 8+4*len(members))
	buf = append(buf, "mask"...)
	for _, fn := range members {
		var mask uint32
		if ci, ok := p.compOf[fn]; ok {
			mask = p.Comps[ci].FusionMask
		}
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(mask), 10)
	}
	return string(buf)
}

// Stats summarizes the program for logs and tests, translating every
// component first.
func (p *Program) Stats() (comps, clauses, fused, static int) {
	for i := range p.Comps {
		c := p.Comp(i)
		comps++
		clauses += len(c.Clauses)
		for _, ci := range c.Clauses {
			fused += int(ci.Fused)
		}
		static += c.StaticSites
	}
	return comps, clauses, fused, static
}
