package inc

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"

	"awam/internal/term"
	"awam/internal/wam"
)

// fpFormat names the fingerprint schema. Bump it whenever the hashed
// form changes meaning (instruction encoding, record format, analysis
// semantics): old cache records then simply stop matching, which is the
// only invalidation this design needs. v2 replaced the disassembly-text
// hash input with the binary encoding below (same coverage, far cheaper
// to compute — fingerprinting is on the warm path of every request).
// v3 salts the schedule-confluent widening semantics: the uniform-list
// closure changes computed summaries (e.g. [f(g)|list(g)] now presents
// as [g|list(g)]), so records written by the pre-closure analyzer must
// never satisfy a post-closure run, and vice versa.
const fpFormat = "awam-scc-fp 3"

// Fingerprint computes content addresses over the condensation,
// bottom-up, under one salt: format names the record schema (fpFormat
// for forward summaries; the backward engine keys its demand records
// under its own, so the two record universes can never satisfy each
// other's probes, even through a shared store) and context the analysis
// configuration. compSalt, when non-nil, adds a per-component salt —
// the forward engine's specialized-stream generation of that component
// (specialize.Program.CompSalt) — so a salt that varies by component
// never dirties the components it does not describe. A fingerprint
// covers:
//
//   - the schema name, the configuration and the component's salt,
//   - each member's compiled code, encoded position-independently
//     (addresses relative to the procedure entry, callee identity by
//     name — see relInstr),
//   - the fingerprints of all callee components, i.e. transitively the
//     entire cone below.
//
// Two components hash equal exactly when analyzing them under the same
// configuration is guaranteed to produce the same summaries, so cached
// records can be reused without any soundness check at load time.
// Undefined pseudo-components hash their name/arity: defining the
// predicate later replaces the pseudo-fingerprint with a code hash and
// thereby dirties every caller.
//
// With roots nil every component is hashed. Otherwise only the roots
// and the components they reach through Callees are: that set is closed
// under callees, so each of its fingerprints is identical to the
// whole-program one, and the rest of the plan stays "".
//
// The condensation memoizes, per format and context, each component's
// salt, its own hash (the hash state after the schema, configuration,
// salt and members' code) and its fingerprint. A fingerprint is reused
// when the component's salt is the memo's and every callee's
// fingerprint was reused too; otherwise the own hash is reused when the
// salt is the memo's, and only the callee part is hashed again. A
// derived condensation (Derive) starts from its base's memo, so a
// one-edit program hashes only its dirty cone. Only whole-program calls
// (roots nil) update the memo, which keeps every memoized fingerprint
// the hash of its callees' memoized ones.
func (c *Condensation) Fingerprint(format, context string, compSalt func(*SCC) string, roots []int) *Plan {
	p := &Plan{Condensation: c, Fingerprints: make([]string, len(c.SCCs))}
	var need []bool
	if roots != nil {
		need = make([]bool, len(c.SCCs))
		stack := append([]int(nil), roots...)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if need[i] {
				continue
			}
			need[i] = true
			stack = append(stack, c.SCCs[i].Callees...)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := format + "\x00" + context
	m := c.memo[key]
	if m == nil && roots == nil {
		// A first whole-program pass hashes every component: size the
		// own-hash store for all of them at once.
		m = &fpMemo{comps: make([]fpComp, len(c.SCCs)), states: make([]byte, 0, len(c.SCCs)*stateSize)}
		if c.memo == nil {
			c.memo = make(map[string]*fpMemo)
		}
		c.memo[key] = m
	}
	// A partial pass reads the memo, if there is one, and keeps the own
	// hashes it computes to itself.
	states := m
	if roots != nil {
		states = &fpMemo{}
	}
	reused := make([]bool, len(c.SCCs))
	h := sha256.New()
	var bw binWriter
	var fps []string
	var sum [sha256.Size]byte
	for i, scc := range c.SCCs {
		if need != nil && !need[i] {
			continue
		}
		salt := fpComp{}
		if compSalt != nil {
			salt.salted, salt.salt = true, compSalt(scc)
		}
		var mc fpComp
		if m != nil {
			mc = m.comps[i]
		}
		sameSalt := mc.own != nil && mc.salted == salt.salted && mc.salt == salt.salt
		if sameSalt && mc.fp != "" && allReused(scc.Callees, reused) {
			p.Fingerprints[i] = mc.fp
			reused[i] = true
			continue
		}
		p.Hashed++
		if sameSalt {
			if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(mc.own); err != nil {
				panic(err) // a state this hash marshaled
			}
		} else {
			h.Reset()
			bw.buf = bw.buf[:0]
			bw.str(format)
			bw.str(context)
			if salt.salted {
				bw.str(salt.salt)
			}
			for _, fn := range scc.Members {
				if scc.Undefined {
					bw.str("undefined")
					bw.str(c.Mod.Tab.Name(fn.Name))
					bw.uint(uint64(fn.Arity))
					continue
				}
				sp, _ := c.span(fn)
				writeProcBin(&bw, c.Mod, fn, sp[0], sp[1])
			}
			h.Write(bw.buf)
			mc = salt
			mc.own = states.appendState(h)
		}
		// Callee fingerprints sorted lexically: the set matters, not the
		// call order (summaries are order-free), and sorting keeps the
		// hash stable under clause reordering that preserves the set.
		fps = fps[:0]
		for _, j := range scc.Callees {
			fps = append(fps, p.Fingerprints[j])
		}
		sort.Strings(fps)
		bw.buf = bw.buf[:0]
		for _, fp := range fps {
			bw.str(fp)
		}
		h.Write(bw.buf)
		mc.fp = hex.EncodeToString(h.Sum(sum[:0]))
		p.Fingerprints[i] = mc.fp
		if roots == nil {
			m.comps[i] = mc
		}
	}
	return p
}

// fpMemo is a condensation's fingerprint memo for one format and
// context, indexed like SCCs.
type fpMemo struct {
	comps []fpComp
	// states backs the own hashes this memo computed.
	states []byte
}

// fpComp is one component's memo entry: the salt it was hashed under,
// the hash state after its own part, and its fingerprint.
type fpComp struct {
	salted bool
	salt   string
	own    []byte
	fp     string
}

// stateSize is the length of a marshaled SHA-256 state.
var stateSize = func() int {
	b, err := sha256.New().(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err)
	}
	return len(b)
}()

// appendState marshals h's state into the memo's backing store.
func (m *fpMemo) appendState(h hash.Hash) []byte {
	start := len(m.states)
	var err error
	m.states, err = h.(encoding.BinaryAppender).AppendBinary(m.states)
	if err != nil {
		panic(err) // sha256 state always marshals
	}
	return m.states[start:len(m.states):len(m.states)]
}

// allReused reports whether every callee's fingerprint came from the
// memo.
func allReused(callees []int, reused []bool) bool {
	for _, j := range callees {
		if !reused[j] {
			return false
		}
	}
	return true
}

// binWriter builds the fingerprint's hash input: a flat byte string of
// varints and length-prefixed names. Every atom and functor is encoded
// by spelling, never by interned number, so the encoding is stable
// across processes and symbol tables.
type binWriter struct{ buf []byte }

func (b *binWriter) uint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }
func (b *binWriter) int(v int64)   { b.buf = binary.AppendVarint(b.buf, v) }
func (b *binWriter) str(s string) {
	b.uint(uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// writeProcBin encodes one procedure's code position-independently:
// entry and clause addresses relative to the span start, every
// instruction with absolute addresses stripped by relInstr. Switch
// dispatch tables are emitted in sorted key order (map iteration order
// must not leak into the hash).
func writeProcBin(bw *binWriter, mod *wam.Module, fn term.Functor, start, end int) {
	tab := mod.Tab
	proc := mod.Procs[fn]
	bw.str(tab.Name(fn.Name))
	bw.uint(uint64(fn.Arity))
	bw.int(int64(proc.Entry - start))
	bw.uint(uint64(len(proc.Clauses)))
	for _, c := range proc.Clauses {
		bw.int(int64(c - start))
	}
	bw.uint(uint64(end - start))
	for addr := start; addr < end; addr++ {
		ins, sw := relInstr(mod, mod.Code[addr], start)
		bw.uint(uint64(ins.Op))
		bw.int(int64(ins.A1))
		bw.int(int64(ins.A2))
		bw.int(ins.I)
		bw.int(int64(ins.L))
		bw.int(int64(sw.LV))
		bw.int(int64(sw.LC))
		bw.int(int64(sw.LL))
		bw.int(int64(sw.LS))
		if ins.Fn == (term.Functor{}) {
			bw.uint(0)
		} else {
			bw.uint(1)
			bw.str(tab.Name(ins.Fn.Name))
			bw.uint(uint64(ins.Fn.Arity))
		}
		if len(sw.TblC) > 0 {
			type centry struct {
				k wam.ConstKey
				v int
			}
			ents := make([]centry, 0, len(sw.TblC))
			for k, v := range sw.TblC {
				ents = append(ents, centry{k, v})
			}
			sort.Slice(ents, func(i, j int) bool {
				a, b := ents[i].k, ents[j].k
				if a.IsInt != b.IsInt {
					return !a.IsInt
				}
				if a.IsInt {
					return a.I < b.I
				}
				return tab.Name(a.A) < tab.Name(b.A)
			})
			bw.uint(uint64(len(ents)))
			for _, e := range ents {
				if e.k.IsInt {
					bw.uint(1)
					bw.int(e.k.I)
				} else {
					bw.uint(0)
					bw.str(tab.Name(e.k.A))
				}
				bw.int(int64(e.v))
			}
		} else {
			bw.uint(0)
		}
		if len(sw.TblS) > 0 {
			type sentry struct {
				k term.Functor
				v int
			}
			ents := make([]sentry, 0, len(sw.TblS))
			for k, v := range sw.TblS {
				ents = append(ents, sentry{k, v})
			}
			sort.Slice(ents, func(i, j int) bool {
				an, bn := tab.Name(ents[i].k.Name), tab.Name(ents[j].k.Name)
				if an != bn {
					return an < bn
				}
				return ents[i].k.Arity < ents[j].k.Arity
			})
			bw.uint(uint64(len(ents)))
			for _, e := range ents {
				bw.str(tab.Name(e.k.Name))
				bw.uint(uint64(e.k.Arity))
				bw.int(int64(e.v))
			}
		} else {
			bw.uint(0)
		}
	}
}

// writeProcText renders the same position-independent view as
// writeProcBin, but through the disassembler — the human-readable
// companion behind ProcText for tests and the debug CLI.
func writeProcText(w io.Writer, mod *wam.Module, fn term.Functor, start, end int) {
	proc := mod.Procs[fn]
	fmt.Fprintf(w, "member %s entry %d\n", mod.Tab.FuncString(fn), proc.Entry-start)
	for _, c := range proc.Clauses {
		fmt.Fprintf(w, " clause %d\n", c-start)
	}
	for addr := start; addr < end; addr++ {
		ins, sw := relInstr(mod, mod.Code[addr], start)
		fmt.Fprintf(w, " %d %s\n", addr-start, mod.DisasmWith(ins, &sw))
	}
}

// relInstr rewrites an instruction's address operands relative to the
// procedure base so the encoded form is position-independent:
// inserting a predicate above must not change the fingerprints of
// unchanged code. Call/execute targets are dropped entirely — callee
// identity is the functor name, and callee *content* is covered by the
// callee component's fingerprint, not the caller's. FailAddr is kept
// verbatim (it is a sentinel, not a position). A switch's operands are
// returned as a relative copy of its side-table entry, and its own L
// (the entry's index) becomes 0; other instructions get a zero Switch.
func relInstr(mod *wam.Module, ins wam.Instr, base int) (wam.Instr, wam.Switch) {
	rel := func(a int) int {
		if a == wam.FailAddr {
			return a
		}
		return a - base
	}
	var sw wam.Switch
	switch ins.Op {
	case wam.OpCall, wam.OpExecute:
		ins.L = 0
	case wam.OpTryMeElse, wam.OpRetryMeElse, wam.OpTry, wam.OpRetry, wam.OpTrust:
		ins.L = rel(ins.L)
	case wam.OpSwitchOnTerm, wam.OpSwitchOnConst, wam.OpSwitchOnStruct:
		src := mod.Switch(ins)
		sw = wam.Switch{TblC: relTable(src.TblC, rel), TblS: relTable(src.TblS, rel), LD: src.LD}
		if ins.Op == wam.OpSwitchOnTerm {
			sw.LV, sw.LC, sw.LL, sw.LS = rel(src.LV), rel(src.LC), rel(src.LL), rel(src.LS)
		}
		ins.L = 0
	}
	return ins, sw
}

// relTable returns a copy of a dispatch table with its targets mapped by
// rel; nil stays nil.
func relTable[K comparable](t map[K]int, rel func(int) int) map[K]int {
	if t == nil {
		return nil
	}
	out := make(map[K]int, len(t))
	for k, v := range t {
		out[k] = rel(v)
	}
	return out
}

// ProcText returns a position-independent rendering of one defined
// predicate's code — a readable view of what its fingerprint covers
// (the hash input itself is the binary form of writeProcBin). Exposed
// for tests and the debug CLI; returns "" for undefined predicates.
func (c *Condensation) ProcText(fn term.Functor) string {
	sp, ok := c.span(fn)
	if !ok {
		return ""
	}
	var b strings.Builder
	writeProcText(&b, c.Mod, fn, sp[0], sp[1])
	return b.String()
}
