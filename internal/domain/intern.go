package domain

import (
	"slices"

	"awam/internal/term"
)

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
// through the whole-pattern hash; a miss walks the pattern once,
// inserting the nodes not yet present. Term nodes, pattern nodes and
// whole-pattern hashes share one pointer-free index (index.go), and
// every node's children sit in one shared ID slice.
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

// span locates a node's children in Interner.kids.
type span struct{ off, n int32 }

// tnode is one interned term: its shallow structure over child IDs plus
// the canonical representative subtree.
type tnode struct {
	kind  Kind
	share int32 // pattern-renumbered group id, 0 = unshared
	fn    term.Functor
	elem  TermID // List
	args  span   // Struct
	rep   *Term
}

// pnode is one interned pattern.
type pnode struct {
	fn   term.Functor
	args span
	rep  *Pattern
}

// Interner is the hash-conser. It is owned by one analysis and is not
// safe for concurrent use. The zero value is not ready; use NewInterner.
type Interner struct {
	terms []tnode
	pats  []pnode
	// kids holds the child IDs of every node, term and pattern alike.
	kids []TermID
	// idx maps node hashes to term and pattern IDs, and whole-pattern
	// structural hashes to pattern IDs: the steady-state Intern call
	// (finite widened domain, almost all hits) resolves with one tree
	// hash, one probe and one compare against the canonical rep, instead
	// of a probe per node.
	idx idIndex
	// atoms lists the distinct functor names the nodes use, in first-use
	// order, and named marks them (a bit per atom): the names are what a
	// node's meaning takes from the symbol table (see Atoms).
	atoms []term.Atom
	named []uint64
	// sc is the reusable per-walk state, so the hot path allocates
	// nothing.
	sc internScratch
}

// NewInterner returns an empty interner; ID 0 is reserved for Bottom.
func NewInterner() *Interner {
	return &Interner{
		terms: make([]tnode, 1), // TermID 0 is never issued
		pats:  make([]pnode, 1), // PatternID 0 = Bottom (nil pattern)
		sc:    internScratch{renum: make(map[int]int, 8), ids: make([]TermID, 0, 16)},
	}
}

// Clone returns an interner that holds every pattern in holds, under
// the same IDs, and interns new ones above them. The clone shares in's
// nodes, which are never modified, and clips every shared slice it may
// append to, so its appends copy instead of writing into in: any number
// of clones of one interner can be used concurrently, one goroutine
// each, while in itself is no longer changed.
func (in *Interner) Clone() *Interner {
	return &Interner{
		terms: slices.Clip(in.terms),
		pats:  slices.Clip(in.pats),
		kids:  slices.Clip(in.kids),
		idx:   in.idx.clone(),
		atoms: slices.Clip(in.atoms),
		named: slices.Clone(in.named),
		sc:    internScratch{renum: make(map[int]int, 8), ids: make([]TermID, 0, 16)},
	}
}

// Atoms returns the distinct functor names the interned nodes use, the
// pattern's and each structure's, in the order they first appeared.
// The interner depends on a symbol table only through these names: its
// nodes mean the same patterns over any table that spells each of them
// alike, so a caller can check that in time proportional to the names,
// not the nodes. The slice must not be modified.
func (in *Interner) Atoms() []term.Atom {
	return slices.Clip(in.atoms)
}

// name records that a new node uses a.
func (in *Interner) name(a term.Atom) {
	w, bit := int(a)/64, uint64(1)<<(uint(a)%64)
	for w >= len(in.named) {
		in.named = append(in.named, 0)
	}
	if in.named[w]&bit == 0 {
		in.named[w] |= bit
		in.atoms = append(in.atoms, a)
	}
}

// internScratch is the per-walk state: the share renumbering map, a
// child-ID stack and, for InternMapped, the atom map.
type internScratch struct {
	renum map[int]int
	ids   []TermID
	atoms []term.Atom
}

// fn is f with its name translated through the walk's atom map.
func (sc *internScratch) fn(f term.Functor) term.Functor {
	if sc.atoms != nil {
		f.Name = sc.atoms[f.Name]
	}
	return f
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
	for pr := in.idx.lookup(h, roleWhole); ; {
		pid, ok := pr.next()
		if !ok {
			break
		}
		clear(sc.renum)
		if eqCanonical(p, in.pats[pid].rep, sc) {
			return PatternID(pid), true
		}
	}
	clear(sc.renum)
	id, hit := in.walkPattern(p, sc)
	in.idx.insert(h, roleWhole, int32(id))
	return id, hit
}

// InternMapped is Intern of p with every functor name a (the pattern's
// and each structure's) replaced by atoms[a]: p's names belong to
// another symbol table, and atoms translates them into the one this
// interner's patterns use. It hashes and walks p directly, building no
// translated copy, and returns what Intern of that copy would return.
// atoms must cover every name p uses.
func (in *Interner) InternMapped(p *Pattern, atoms []term.Atom) (PatternID, bool) {
	in.sc.atoms = atoms
	id, hit := in.Intern(p)
	in.sc.atoms = nil
	return id, hit
}

// hashPattern computes a whole-tree structural hash of p under the same
// equivalence walkPattern quotients by: share groups renumbered in
// first-occurrence preorder through sc.renum.
func hashPattern(p *Pattern, sc *internScratch) uint64 {
	fn := sc.fn(p.Fn)
	h := mix(mix(fnvOffset, uint64(uint32(fn.Name))), uint64(uint32(fn.Arity)))
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
	fn := t.Fn
	if t.Kind == Struct {
		fn = sc.fn(fn)
	}
	h = mix(h, uint64(t.Kind)<<32|uint64(uint32(share)))
	h = mix(h, uint64(uint32(fn.Name))<<16|uint64(uint32(fn.Arity)))
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
// rep's canonical first-occurrence numbering through sc.renum (empty on
// entry; the caller clears it between candidates), and p's names
// through sc's atom map. Positional comparison makes the mapping
// bijective: a rep share that disagrees with p's renumbered value
// rejects immediately.
func eqCanonical(p *Pattern, rep *Pattern, sc *internScratch) bool {
	if sc.fn(p.Fn) != rep.Fn || len(p.Args) != len(rep.Args) {
		return false
	}
	for i := range p.Args {
		if !eqCanonicalTerm(p.Args[i], rep.Args[i], sc) {
			return false
		}
	}
	return true
}

func eqCanonicalTerm(t, rep *Term, sc *internScratch) bool {
	fn := t.Fn
	if t.Kind == Struct {
		fn = sc.fn(fn)
	}
	if t.Kind != rep.Kind || fn != rep.Fn {
		return false
	}
	want := 0
	if t.Share != 0 {
		g, ok := sc.renum[t.Share]
		if !ok {
			g = len(sc.renum) + 1
			sc.renum[t.Share] = g
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
			if !eqCanonicalTerm(t.Args[i], rep.Args[i], sc) {
				return false
			}
		}
	case List:
		return eqCanonicalTerm(t.Elem, rep.Elem, sc)
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
	id, hit := in.InternNodes(sc.fn(p.Fn), sc.ids[base:])
	sc.ids = sc.ids[:base]
	return id, hit
}

// walkTerm resolves t within the current pattern walk. Share groups are
// renumbered through sc.renum in first-occurrence preorder — the same
// numbering Key() emits — before the children are resolved, so the
// stored share values are canonical.
func (in *Interner) walkTerm(t *Term, sc *internScratch) TermID {
	share := 0
	if t.Share != 0 {
		g, ok := sc.renum[t.Share]
		if !ok {
			g = len(sc.renum) + 1
			sc.renum[t.Share] = g
		}
		share = g
	}
	var fn term.Functor
	var elem TermID
	base := len(sc.ids)
	switch t.Kind {
	case Struct:
		fn = sc.fn(t.Fn)
		for _, a := range t.Args {
			sc.ids = append(sc.ids, in.walkTerm(a, sc))
		}
	case List:
		elem = in.walkTerm(t.Elem, sc)
	}
	id := in.Node(t.Kind, share, fn, elem, sc.ids[base:])
	sc.ids = sc.ids[:base]
	return id
}

// Node returns the ID of the term node with the given kind, share group
// (0 for none), functor (Struct only) and children — elem for a List,
// args for a Struct, each an ID of this interner — interning the node
// if it is new. It is the one lookup-or-insert of a term node: Intern's
// walk uses it, and so may a caller that holds a pattern in another
// form and interns it bottom-up, without building a Term tree. Its share
// groups must then be canonical: only groups of two or more
// occurrences, numbered 1, 2, ... in the pattern's first-occurrence
// preorder, a node before its children.
func (in *Interner) Node(kind Kind, share int, fn term.Functor, elem TermID, args []TermID) TermID {
	h := mix(mix(fnvOffset, uint64(kind)<<32|uint64(uint32(share))), uint64(uint32(fn.Name))<<16|uint64(uint32(fn.Arity)))
	h = mix(h, uint64(elem))
	for _, id := range args {
		h = mix(h, uint64(id))
	}
	for pr := in.idx.lookup(h, roleTerm); ; {
		id, ok := pr.next()
		if !ok {
			break
		}
		n := &in.terms[id]
		if n.kind == kind && int(n.share) == share && n.fn == fn && n.elem == elem && slices.Equal(in.span(n.args), args) {
			return TermID(id)
		}
	}
	var rep *Term
	switch kind {
	case Struct:
		kids := make([]*Term, len(args))
		for i, id := range args {
			kids[i] = in.terms[id].rep
		}
		rep = &Term{Kind: Struct, Fn: fn, Args: kids, Share: share}
		in.name(fn.Name)
	case List:
		rep = &Term{Kind: List, Elem: in.terms[elem].rep, Share: share}
	default:
		rep = &Term{Kind: kind, Share: share}
	}
	id := TermID(len(in.terms))
	in.terms = append(in.terms, tnode{
		kind: kind, share: int32(share), fn: fn, elem: elem,
		args: in.store(args), rep: rep,
	})
	in.idx.insert(h, roleTerm, int32(id))
	return id
}

// InternNodes returns the ID of the pattern fn(args) over term nodes of
// this interner (see Node), interning it if it is new, and reports
// whether it was already present.
func (in *Interner) InternNodes(fn term.Functor, args []TermID) (PatternID, bool) {
	h := mix(mix(fnvOffset, uint64(uint32(fn.Name))), uint64(uint32(fn.Arity)))
	for _, id := range args {
		h = mix(h, uint64(id))
	}
	for pr := in.idx.lookup(h, rolePattern); ; {
		pid, ok := pr.next()
		if !ok {
			break
		}
		n := &in.pats[pid]
		if n.fn == fn && slices.Equal(in.span(n.args), args) {
			return PatternID(pid), true
		}
	}
	var reps []*Term
	if len(args) > 0 {
		reps = make([]*Term, len(args))
		for i, id := range args {
			reps[i] = in.terms[id].rep
		}
	}
	rep := &Pattern{Fn: fn, Args: reps}
	rep.Key() // precompute: reps are shared read-only
	in.name(fn.Name)
	pid := PatternID(len(in.pats))
	in.pats = append(in.pats, pnode{fn: fn, args: in.store(args), rep: rep})
	in.idx.insert(h, rolePattern, int32(pid))
	return pid, false
}

// store appends a node's children to kids.
func (in *Interner) store(ids []TermID) span {
	s := span{off: int32(len(in.kids)), n: int32(len(ids))}
	in.kids = append(in.kids, ids...)
	return s
}

func (in *Interner) span(s span) []TermID {
	return in.kids[s.off : s.off+s.n]
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
