package domain

import "awam/internal/term"

// This file implements hash-consing for the abstract domain: an
// Interner that maps every canonical Pattern (and, recursively, every abstract Term occurring in one) to a dense integer
// PatternID. Two patterns receive the same ID exactly when their Key()
// serializations are equal (share groups renumbered in first-occurrence
// order), so the engine can key its extension table, worklist dedup and
// dependency edges on a word compare instead of building and hashing a
// string per lookup.
//
// The interner never serializes: identity is structural. A term node's
// identity is (kind, renumbered share, functor, child IDs); because the
// children are already interned, a deep comparison of two subtrees is a
// shallow comparison of small integers. The renumbering is per-pattern
// (the same map Key() threads through its arguments), so a subtree's
// TermID depends on where its share groups sit in the whole pattern —
// exactly the equivalence Key() quotients by.
//
// Ownership: an Interner belongs to one Analyzer and, like Memo, is
// not safe for concurrent use. The depth-k-widened domain is finite, so
// after a short warm-up almost every Intern call finds its pattern
// through the whole-pattern fast bucket; a miss walks the pattern once,
// inserting the nodes not yet present.
//
// Each interned pattern stores a canonical representative (*Pattern)
// whose Key is precomputed before its ID is returned, so callers may
// share reps freely. Reps share interned subtrees (a DAG, not a tree),
// which every consumer tolerates: the domain operations are read-only
// and value-based.

// PatternID is the dense hash-consed identity of a canonical Pattern.
// IDs are only meaningful within the Interner that produced them.
type PatternID int32

// TermID identifies one interned abstract term node (pattern-context
// renumbered, see above).
type TermID int32

// BottomID is the PatternID of the nil pattern (no success recorded).
const BottomID PatternID = 0

// tnode is one interned term: its shallow structure over child IDs plus
// the canonical representative subtree.
type tnode struct {
	kind  Kind
	share int32 // pattern-renumbered group id, 0 = unshared
	fn    term.Functor
	elem  TermID   // List
	args  []TermID // Struct
	rep   *Term
}

// pnode is one interned pattern.
type pnode struct {
	fn   term.Functor
	args []TermID
	rep  *Pattern
}

// Interner is the hash-conser. It is owned by one analysis and is not
// safe for concurrent use. The zero value is not ready; use NewInterner.
type Interner struct {
	terms []tnode
	tbuck map[uint64][]TermID
	pats  []pnode
	pbuck map[uint64][]PatternID
	// fast buckets whole-pattern structural hashes to candidate IDs: the
	// steady-state Intern call (finite widened domain, almost all hits)
	// resolves with one tree hash, one map probe and one compare against
	// the canonical rep, instead of a per-node bucket probe in tbuck.
	fast map[uint64][]PatternID
	// sc is the reusable per-walk state, so the hot path allocates
	// nothing.
	sc internScratch
}

// NewInterner returns an empty interner; ID 0 is reserved for Bottom.
func NewInterner() *Interner {
	return &Interner{
		terms: make([]tnode, 1), // TermID 0 is never issued
		tbuck: make(map[uint64][]TermID, 256),
		pats:  make([]pnode, 1), // PatternID 0 = Bottom (nil pattern)
		pbuck: make(map[uint64][]PatternID, 64),
		fast:  make(map[uint64][]PatternID, 64),
		sc:    internScratch{renum: make(map[int]int, 8), ids: make([]TermID, 0, 16)},
	}
}

// internScratch is the per-walk state: the share renumbering map and a
// child-ID stack.
type internScratch struct {
	renum map[int]int
	ids   []TermID
}

func (sc *internScratch) reset() {
	clear(sc.renum)
	sc.ids = sc.ids[:0]
}

// Intern returns the ID of p's canonical form, interning it on first
// sight, and reports whether it was already present: the flag is false
// exactly when this call inserted the pattern. nil interns to Bottom.
// Intern(p) == Intern(q) iff p.Key() == q.Key().
func (in *Interner) Intern(p *Pattern) (PatternID, bool) {
	if p == nil {
		return BottomID, true
	}
	sc := &in.sc
	sc.reset()
	h := hashPattern(p, sc)
	for _, pid := range in.fast[h] {
		clear(sc.renum)
		if eqCanonical(p, in.pats[pid].rep, sc.renum) {
			return pid, true
		}
	}
	clear(sc.renum)
	id, hit := in.walkPattern(p, sc)
	in.fast[h] = append(in.fast[h], id)
	return id, hit
}

// hashPattern computes a whole-tree structural hash of p under the same
// equivalence walkPattern quotients by: share groups renumbered in
// first-occurrence preorder through sc.renum.
func hashPattern(p *Pattern, sc *internScratch) uint64 {
	h := mix(mix(fnvOffset, uint64(uint32(p.Fn.Name))), uint64(uint32(p.Fn.Arity)))
	for _, a := range p.Args {
		h = hashTermTree(a, sc, h)
	}
	return h
}

func hashTermTree(t *Term, sc *internScratch, h uint64) uint64 {
	var share int32
	if t.Share != 0 {
		g, ok := sc.renum[t.Share]
		if !ok {
			g = len(sc.renum) + 1
			sc.renum[t.Share] = g
		}
		share = int32(g)
	}
	h = mix(h, uint64(t.Kind)<<32|uint64(uint32(share)))
	h = mix(h, uint64(uint32(t.Fn.Name))<<16|uint64(uint32(t.Fn.Arity)))
	switch t.Kind {
	case Struct:
		h = mix(h, uint64(len(t.Args)))
		for _, a := range t.Args {
			h = hashTermTree(a, sc, h)
		}
	case List:
		h = hashTermTree(t.Elem, sc, h)
	}
	return h
}

// eqCanonical reports whether p is walkPattern-equivalent to the
// canonical rep: structurally equal with p's share groups mapping to
// rep's canonical first-occurrence numbering through renum (empty on
// entry; the caller clears it between candidates). Positional
// comparison makes the mapping bijective: a rep share that disagrees
// with p's renumbered value rejects immediately.
func eqCanonical(p *Pattern, rep *Pattern, renum map[int]int) bool {
	if p.Fn != rep.Fn || len(p.Args) != len(rep.Args) {
		return false
	}
	for i := range p.Args {
		if !eqCanonicalTerm(p.Args[i], rep.Args[i], renum) {
			return false
		}
	}
	return true
}

func eqCanonicalTerm(t, rep *Term, renum map[int]int) bool {
	if t.Kind != rep.Kind || t.Fn != rep.Fn {
		return false
	}
	want := 0
	if t.Share != 0 {
		g, ok := renum[t.Share]
		if !ok {
			g = len(renum) + 1
			renum[t.Share] = g
		}
		want = g
	}
	if rep.Share != want {
		return false
	}
	switch t.Kind {
	case Struct:
		if len(t.Args) != len(rep.Args) {
			return false
		}
		for i := range t.Args {
			if !eqCanonicalTerm(t.Args[i], rep.Args[i], renum) {
				return false
			}
		}
	case List:
		return eqCanonicalTerm(t.Elem, rep.Elem, renum)
	}
	return true
}

// Pattern returns the canonical representative of id (nil for Bottom).
// The rep is immutable with its Key precomputed.
func (in *Interner) Pattern(id PatternID) *Pattern {
	if id == BottomID {
		return nil
	}
	return in.pats[id].rep
}

// Size reports the number of distinct patterns and term nodes interned.
func (in *Interner) Size() (patterns, terms int) {
	return len(in.pats) - 1, len(in.terms) - 1
}

// FNV-1a-style mixing over node fields and child IDs.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}

// walkPattern resolves p to its ID, interning missing nodes, and
// reports whether the pattern itself was already present.
func (in *Interner) walkPattern(p *Pattern, sc *internScratch) (PatternID, bool) {
	base := len(sc.ids)
	for _, a := range p.Args {
		sc.ids = append(sc.ids, in.walkTerm(a, sc))
	}
	args := sc.ids[base:]
	h := mix(mix(fnvOffset, uint64(uint32(p.Fn.Name))), uint64(uint32(p.Fn.Arity)))
	for _, id := range args {
		h = mix(h, uint64(id))
	}
	for _, pid := range in.pbuck[h] {
		n := &in.pats[pid]
		if n.fn == p.Fn && eqIDs(n.args, args) {
			return pid, true
		}
	}
	var reps []*Term
	if len(args) > 0 {
		reps = make([]*Term, len(args))
		for i, id := range args {
			reps[i] = in.terms[id].rep
		}
	}
	rep := &Pattern{Fn: p.Fn, Args: reps}
	rep.Key() // precompute: reps are shared read-only
	pid := PatternID(len(in.pats))
	in.pats = append(in.pats, pnode{fn: p.Fn, args: append([]TermID(nil), args...), rep: rep})
	in.pbuck[h] = append(in.pbuck[h], pid)
	return pid, false
}

// walkTerm resolves t within the current pattern walk. Share groups are
// renumbered through sc.renum in first-occurrence preorder — the same
// numbering Key() emits — before the children are resolved, so the
// stored share values are canonical.
func (in *Interner) walkTerm(t *Term, sc *internScratch) TermID {
	var share int32
	if t.Share != 0 {
		g, ok := sc.renum[t.Share]
		if !ok {
			g = len(sc.renum) + 1
			sc.renum[t.Share] = g
		}
		share = int32(g)
	}
	var fn term.Functor
	var elem TermID
	base := len(sc.ids)
	switch t.Kind {
	case Struct:
		fn = t.Fn
		for _, a := range t.Args {
			sc.ids = append(sc.ids, in.walkTerm(a, sc))
		}
	case List:
		elem = in.walkTerm(t.Elem, sc)
	}
	args := sc.ids[base:]
	h := mix(mix(fnvOffset, uint64(t.Kind)<<32|uint64(uint32(share))), uint64(uint32(fn.Name))<<16|uint64(uint32(fn.Arity)))
	h = mix(h, uint64(elem))
	for _, id := range args {
		h = mix(h, uint64(id))
	}
	for _, id := range in.tbuck[h] {
		n := &in.terms[id]
		if n.kind == t.Kind && n.share == share && n.fn == fn && n.elem == elem && eqIDs(n.args, args) {
			sc.ids = sc.ids[:base]
			return id
		}
	}
	var rep *Term
	switch t.Kind {
	case Struct:
		kids := make([]*Term, len(args))
		for i, id := range args {
			kids[i] = in.terms[id].rep
		}
		rep = &Term{Kind: Struct, Fn: fn, Args: kids, Share: int(share)}
	case List:
		rep = &Term{Kind: List, Elem: in.terms[elem].rep, Share: int(share)}
	default:
		rep = &Term{Kind: t.Kind, Share: int(share)}
	}
	id := TermID(len(in.terms))
	in.terms = append(in.terms, tnode{
		kind: t.Kind, share: share, fn: fn, elem: elem,
		args: append([]TermID(nil), args...), rep: rep,
	})
	in.tbuck[h] = append(in.tbuck[h], id)
	sc.ids = sc.ids[:base]
	return id
}

func eqIDs(a []TermID, b []TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Memo caches the pattern-level lattice operations on interned IDs, so
// repeated merges of the same summaries are map hits instead of graph
// walks. A Memo belongs to one analysis and is not safe for concurrent
// use (no hot-path locks); all IDs must come from one Interner, and the
// widen cache additionally assumes one fixed depth k per analysis.
type Memo struct {
	lub   map[[2]PatternID]PatternID
	widen map[PatternID]PatternID
	leq   map[[2]PatternID]bool
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{
		lub:   make(map[[2]PatternID]PatternID),
		widen: make(map[PatternID]PatternID),
		leq:   make(map[[2]PatternID]bool),
	}
}

// Lub looks up the cached LubPattern result for (a, b).
func (m *Memo) Lub(a, b PatternID) (PatternID, bool) {
	r, ok := m.lub[[2]PatternID{a, b}]
	return r, ok
}

// SetLub records a LubPattern result.
func (m *Memo) SetLub(a, b, r PatternID) { m.lub[[2]PatternID{a, b}] = r }

// Widen looks up the cached WidenPattern result for id.
func (m *Memo) Widen(id PatternID) (PatternID, bool) {
	r, ok := m.widen[id]
	return r, ok
}

// SetWiden records a WidenPattern result.
func (m *Memo) SetWiden(id, r PatternID) { m.widen[id] = r }

// Leq looks up the cached LeqPattern verdict for a ⊑ b.
func (m *Memo) Leq(a, b PatternID) (v, ok bool) {
	v, ok = m.leq[[2]PatternID{a, b}]
	return v, ok
}

// SetLeq records a LeqPattern verdict.
func (m *Memo) SetLeq(a, b PatternID, v bool) { m.leq[[2]PatternID{a, b}] = v }
