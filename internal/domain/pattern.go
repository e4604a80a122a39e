package domain

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"awam/internal/parser"
	"awam/internal/term"
)

// Pattern is a calling pattern or success pattern: an abstract term per
// argument position of a predicate, with share groups spanning the
// arguments. A nil *Pattern denotes bottom (no success recorded yet) —
// the paper's "call made earlier but no solution recorded".
type Pattern struct {
	Fn   term.Functor
	Args []*Term

	// key memoizes Key(); patterns are immutable once built.
	key string
}

// NewPattern builds a pattern; the args must already carry canonical
// share groups (use Canonical to renumber).
func NewPattern(fn term.Functor, args []*Term) *Pattern {
	return &Pattern{Fn: fn, Args: args}
}

// String renders the pattern like the paper: p(atom, list(g)).
func (p *Pattern) String(tab *term.Tab) string {
	if p == nil {
		return "bottom"
	}
	if len(p.Args) == 0 {
		return tab.Name(p.Fn.Name)
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String(tab)
	}
	return tab.Name(p.Fn.Name) + "(" + strings.Join(parts, ", ") + ")"
}

// keyScratch pools the serialization buffer and renumbering map: Key is
// off the engine's hot path since the interner took over identity
// (intern.go), but display, serialization and the tests still call it,
// and the legacy path allocated a map and a growing buffer per pattern.
type keyScratch struct {
	buf   []byte
	renum map[int]int
}

var keyScratchPool = sync.Pool{
	New: func() any {
		return &keyScratch{buf: make([]byte, 0, 128), renum: make(map[int]int, 8)}
	},
}

// Key returns a canonical serialization usable as a lookup key. Share
// groups are renumbered in first-occurrence order, so two patterns
// equal up to group naming produce equal keys. The engine proper keys
// on interned PatternIDs (intern.go), which quotient by exactly the
// same equivalence; Key remains the human-readable/serialized boundary.
func (p *Pattern) Key() string {
	if p == nil {
		return "\x00bottom"
	}
	if p.key != "" {
		return p.key
	}
	sc := keyScratchPool.Get().(*keyScratch)
	buf := sc.buf[:0]
	buf = strconv.AppendInt(buf, int64(p.Fn.Name), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(p.Fn.Arity), 10)
	for _, a := range p.Args {
		buf = keyTerm(buf, a, sc.renum)
	}
	p.key = string(buf)
	sc.buf = buf
	clear(sc.renum)
	keyScratchPool.Put(sc)
	return p.key
}

func keyTerm(buf []byte, t *Term, renum map[int]int) []byte {
	buf = append(buf, '(', byte('0'+t.Kind))
	if t.Share != 0 {
		id, ok := renum[t.Share]
		if !ok {
			id = len(renum) + 1
			renum[t.Share] = id
		}
		buf = append(buf, '#')
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	switch t.Kind {
	case Struct:
		buf = strconv.AppendInt(buf, int64(t.Fn.Name), 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(t.Fn.Arity), 10)
		for _, a := range t.Args {
			buf = keyTerm(buf, a, renum)
		}
	case List:
		buf = keyTerm(buf, t.Elem, renum)
	}
	return append(buf, ')')
}

// Equal compares patterns up to share-group renaming.
func (p *Pattern) Equal(q *Pattern) bool {
	if p == nil || q == nil {
		return p == q
	}
	return p.Key() == q.Key()
}

// Canonical renumbers share groups in first-occurrence order and drops
// groups used only once (a group of one is no sharing at all).
func (p *Pattern) Canonical() *Pattern {
	if p == nil {
		return nil
	}
	// Fast path: a pattern with no share groups is already canonical.
	anyShare := false
	for _, a := range p.Args {
		if hasAnyShare(a) {
			anyShare = true
			break
		}
	}
	if !anyShare {
		return p
	}
	count := make(map[int]int)
	// A share group denotes a single run-time instance, so all its
	// occurrences must be structurally identical; inconsistent groups
	// (possible only through hand-built patterns) are dropped rather
	// than trusted.
	firstOcc := make(map[int]*Term)
	bad := make(map[int]bool)
	var countWalk func(t *Term)
	countWalk = func(t *Term) {
		if t.Share != 0 {
			count[t.Share]++
			if f, ok := firstOcc[t.Share]; ok {
				if !Equal(f, t) {
					bad[t.Share] = true
				}
			} else {
				firstOcc[t.Share] = t
			}
		}
		for _, c := range t.children() {
			countWalk(c)
		}
	}
	for _, a := range p.Args {
		countWalk(a)
	}
	for g := range bad {
		count[g] = 1 // force the drop below
	}
	renum := make(map[int]int)
	var rew func(t *Term) *Term
	rew = func(t *Term) *Term {
		out := *t
		if t.Share != 0 {
			if count[t.Share] < 2 {
				out.Share = 0
			} else {
				id, ok := renum[t.Share]
				if !ok {
					id = len(renum) + 1
					renum[t.Share] = id
				}
				out.Share = id
			}
		}
		if t.Kind == Struct {
			out.Args = make([]*Term, len(t.Args))
			for i, a := range t.Args {
				out.Args[i] = rew(a)
			}
		}
		if t.Kind == List {
			out.Elem = rew(t.Elem)
		}
		return &out
	}
	args := make([]*Term, len(p.Args))
	for i, a := range p.Args {
		args[i] = rew(a)
	}
	return &Pattern{Fn: p.Fn, Args: args}
}

// ArgSharePairs returns the argument index pairs (i < j) whose subtrees
// contain nodes of a common share group — the predicate-level aliasing
// report.
func (p *Pattern) ArgSharePairs() [][2]int {
	if p == nil {
		return nil
	}
	groups := make(map[int][]int) // group -> arg indices
	for i, a := range p.Args {
		seen := make(map[int]bool)
		var walk func(t *Term)
		walk = func(t *Term) {
			if t.Share != 0 && !seen[t.Share] {
				seen[t.Share] = true
				groups[t.Share] = append(groups[t.Share], i)
			}
			for _, c := range t.children() {
				walk(c)
			}
		}
		walk(a)
	}
	pairSet := make(map[[2]int]bool)
	for _, idxs := range groups {
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				pairSet[[2]int{idxs[i], idxs[j]}] = true
			}
		}
	}
	var out [][2]int
	for pr := range pairSet {
		out = append(out, pr)
	}
	// Deterministic order for reports.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j][0] < out[i][0] || (out[j][0] == out[i][0] && out[j][1] < out[i][1]) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// --- graph form for sharing-aware lub ---

type gnode struct {
	kind   Kind
	fn     term.Functor
	args   []*gnode
	elem   *gnode
	shared bool // carried a share group in the source pattern
}

func (g *gnode) children() []*gnode {
	if g.kind == List {
		return []*gnode{g.elem}
	}
	return g.args
}

// graphify converts share-group trees into pointer-shared DAGs.
func graphify(p *Pattern) []*gnode {
	byGroup := make(map[int]*gnode)
	var conv func(t *Term) *gnode
	conv = func(t *Term) *gnode {
		if t.Share != 0 {
			if n, ok := byGroup[t.Share]; ok {
				return n
			}
		}
		n := &gnode{kind: t.Kind, fn: t.Fn, shared: t.Share != 0}
		if t.Share != 0 {
			byGroup[t.Share] = n
		}
		if t.Kind == Struct {
			n.args = make([]*gnode, len(t.Args))
			for i, a := range t.Args {
				n.args[i] = conv(a)
			}
		}
		if t.Kind == List {
			n.elem = conv(t.Elem)
		}
		return n
	}
	out := make([]*gnode, len(p.Args))
	for i, a := range p.Args {
		out[i] = conv(a)
	}
	return out
}

// treeify converts a pointer-shared DAG back into share-group trees,
// assigning group ids in DFS first-visit order (canonical).
func treeify(fn term.Functor, roots []*gnode) *Pattern {
	counts := make(map[*gnode]int)
	var count func(n *gnode)
	count = func(n *gnode) {
		counts[n]++
		if counts[n] > 1 {
			return
		}
		for _, c := range n.children() {
			count(c)
		}
	}
	for _, r := range roots {
		count(r)
	}
	ids := make(map[*gnode]int)
	var conv func(n *gnode) *Term
	conv = func(n *gnode) *Term {
		t := &Term{Kind: n.kind, Fn: n.fn}
		if counts[n] > 1 && n.kind.Open() {
			id, ok := ids[n]
			if !ok {
				id = len(ids) + 1
				ids[n] = id
			}
			t.Share = id
		}
		if n.kind == Struct {
			t.Args = make([]*Term, len(n.args))
			for i, a := range n.args {
				t.Args[i] = conv(a)
			}
		}
		if n.kind == List {
			t.Elem = conv(n.elem)
		}
		return t
	}
	args := make([]*Term, len(roots))
	for i, r := range roots {
		args[i] = conv(r)
	}
	return &Pattern{Fn: fn, Args: args}
}

// gToTree flattens a graph subtree to a plain type tree (sharing
// resolved away), for the shape-mismatch fallback.
func gToTree(n *gnode, busy map[*gnode]bool) *Term {
	if busy[n] {
		return top // cyclic sharing degenerates to any
	}
	busy[n] = true
	defer delete(busy, n)
	t := &Term{Kind: n.kind, Fn: n.fn}
	if n.kind == Struct {
		t.Args = make([]*Term, len(n.args))
		for i, a := range n.args {
			t.Args[i] = gToTree(a, busy)
		}
	}
	if n.kind == List {
		t.Elem = gToTree(n.elem, busy)
	}
	return t
}

func treeToG(t *Term) *gnode {
	n := &gnode{kind: t.Kind, fn: t.Fn}
	if t.Kind == Struct {
		n.args = make([]*gnode, len(t.Args))
		for i, a := range t.Args {
			n.args[i] = treeToG(a)
		}
	}
	if t.Kind == List {
		n.elem = treeToG(t.Elem)
	}
	return n
}

func subgraphShared(n *gnode, seen map[*gnode]bool) bool {
	if seen[n] {
		return false
	}
	seen[n] = true
	if n.shared {
		return true
	}
	for _, c := range n.children() {
		if subgraphShared(c, seen) {
			return true
		}
	}
	return false
}

// devarify replaces var leaves with any, in place. It is applied to lub
// results whose input sharing was dropped: var is the only abstract type
// not closed under instantiation through a lost alias (see DESIGN.md).
func devarify(n *gnode, seen map[*gnode]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	if n.kind == Var {
		n.kind = Any
	}
	for _, c := range n.children() {
		devarify(c, seen)
	}
}

type gpair struct{ a, b *gnode }

// LubPattern computes the least upper bound of two patterns of the same
// predicate, preserving sharing that is common to both (definite
// aliasing) and soundly widening var nodes whose one-sided sharing had
// to be dropped. Patterns without share groups — most of them — take a
// plain tree recursion that builds exactly the pattern the graph lub
// would; the graph lub runs only when either side shares.
func LubPattern(tab *term.Tab, p, q *Pattern) *Pattern {
	if p == nil {
		if q == nil {
			return nil
		}
		return q.Canonical()
	}
	if q == nil {
		return p.Canonical()
	}
	if p.Fn != q.Fn {
		panic("domain: lub of patterns of different predicates")
	}
	if !patternShares(p) && !patternShares(q) {
		return lubShareFree(tab, p, q)
	}
	return lubGraph(tab, p, q)
}

// patternShares reports whether any argument of p carries a share group.
func patternShares(p *Pattern) bool {
	for _, a := range p.Args {
		if hasAnyShare(a) {
			return true
		}
	}
	return false
}

// lubShareFree is lubGraph on two patterns without share groups. Their
// graphs are trees, no node is reached twice and nothing is devarified,
// so the graph lub reduces to a tree recursion over the arguments.
func lubShareFree(tab *term.Tab, p, q *Pattern) *Pattern {
	args := make([]*Term, len(p.Args))
	for i := range p.Args {
		args[i] = lubTree(tab, p.Args[i], q.Args[i])
	}
	return &Pattern{Fn: p.Fn, Args: args}
}

// lubTree mirrors lubGraph's node cases on share-free trees: structures
// with one functor join pointwise, lists elementwise, equal leaf kinds
// give a fresh leaf of that kind (with a zero Fn, as a graph node
// carries none), and any other pair is a fresh copy of the type-level
// Lub.
func lubTree(tab *term.Tab, a, b *Term) *Term {
	switch {
	case a.Kind == Struct && b.Kind == Struct && a.Fn == b.Fn:
		args := make([]*Term, len(a.Args))
		for i := range a.Args {
			args[i] = lubTree(tab, a.Args[i], b.Args[i])
		}
		return &Term{Kind: Struct, Fn: a.Fn, Args: args}
	case a.Kind == List && b.Kind == List:
		return &Term{Kind: List, Elem: lubTree(tab, a.Elem, b.Elem)}
	case a.Kind == b.Kind && a.Kind != Struct && a.Kind != List:
		return &Term{Kind: a.Kind}
	}
	return Copy(Lub(tab, a, b))
}

// lubGraph is the sharing-aware lub: both patterns become pointer-shared
// graphs, are joined node pair by node pair, and the result is turned
// back into share-group trees.
func lubGraph(tab *term.Tab, p, q *Pattern) *Pattern {
	ga := graphify(p)
	gb := graphify(q)
	memo := make(map[gpair]*gnode)
	byA := make(map[*gnode][]*gnode) // input a-node -> result nodes
	byB := make(map[*gnode][]*gnode)

	var lub func(a, b *gnode) *gnode
	lub = func(a, b *gnode) *gnode {
		key := gpair{a, b}
		if r, ok := memo[key]; ok {
			return r
		}
		var r *gnode
		switch {
		case a.kind == b.kind && a.kind == Struct && a.fn == b.fn:
			r = &gnode{kind: Struct, fn: a.fn}
			memo[key] = r
			byA[a] = append(byA[a], r)
			byB[b] = append(byB[b], r)
			r.args = make([]*gnode, len(a.args))
			for i := range a.args {
				r.args[i] = lub(a.args[i], b.args[i])
			}
			return r
		case a.kind == b.kind && a.kind == List:
			r = &gnode{kind: List}
			memo[key] = r
			byA[a] = append(byA[a], r)
			byB[b] = append(byB[b], r)
			r.elem = lub(a.elem, b.elem)
			return r
		case a.kind == b.kind && a.kind != Struct && a.kind != List:
			r = &gnode{kind: a.kind}
		default:
			// Shape mismatch: fall back to the type-level lub; any
			// sharing inside is dropped, so devarify when needed.
			ta := gToTree(a, make(map[*gnode]bool))
			tb := gToTree(b, make(map[*gnode]bool))
			t := Lub(tab, ta, tb)
			r = treeToG(t)
			if subgraphShared(a, make(map[*gnode]bool)) || subgraphShared(b, make(map[*gnode]bool)) {
				devarify(r, make(map[*gnode]bool))
			}
		}
		memo[key] = r
		byA[a] = append(byA[a], r)
		byB[b] = append(byB[b], r)
		return r
	}

	roots := make([]*gnode, len(ga))
	for i := range ga {
		roots[i] = lub(ga[i], gb[i])
	}

	// Sharing dropped on one side only: widen the affected results.
	for _, m := range []map[*gnode][]*gnode{byA, byB} {
		for in, outs := range m {
			if !in.shared {
				continue
			}
			distinct := make(map[*gnode]bool)
			for _, o := range outs {
				distinct[o] = true
			}
			if len(distinct) > 1 {
				for o := range distinct {
					devarify(o, make(map[*gnode]bool))
				}
			}
		}
	}
	return treeify(p.Fn, roots)
}

// LeqPattern reports whether p is at least as precise as q: every
// argument type of p is ⊑ the corresponding type of q, and every
// co-sharing implied by q also holds in p.
func LeqPattern(tab *term.Tab, p, q *Pattern) bool {
	if p == nil {
		return true
	}
	if q == nil {
		return false
	}
	if p.Fn != q.Fn {
		return false
	}
	for i := range p.Args {
		if !Leq(tab, p.Args[i], q.Args[i]) {
			return false
		}
	}
	// Sharing: q's groups must be a coarsening of p's (less precise
	// pattern asserts fewer definite aliases). A q without share groups
	// asserts nothing.
	qShares := false
	for _, a := range q.Args {
		if hasAnyShare(a) {
			qShares = true
			break
		}
	}
	if !qShares {
		return true
	}
	return shareSubset(q, p)
}

// shareSubset reports whether every pair of positions co-shared in a is
// also co-shared in b.
func shareSubset(a, b *Pattern) bool {
	pa := sharePositionPairs(a)
	pb := sharePositionPairs(b)
	for k := range pa {
		if !pb[k] {
			return false
		}
	}
	return true
}

// sharePositionPairs maps "path1|path2" keys for every pair of node
// paths in the same share group.
func sharePositionPairs(p *Pattern) map[string]bool {
	groups := make(map[int][]string)
	for i, a := range p.Args {
		var walk func(t *Term, path string)
		walk = func(t *Term, path string) {
			if t.Share != 0 {
				groups[t.Share] = append(groups[t.Share], path)
			}
			for ci, c := range t.children() {
				walk(c, fmt.Sprintf("%s.%d", path, ci))
			}
		}
		walk(a, fmt.Sprintf("%d", i))
	}
	out := make(map[string]bool)
	for _, paths := range groups {
		for i := 0; i < len(paths); i++ {
			for j := i + 1; j < len(paths); j++ {
				a, b := paths[i], paths[j]
				if b < a {
					a, b = b, a
				}
				out[a+"|"+b] = true
			}
		}
	}
	return out
}

// WidenPattern applies Widen — the depth restriction plus the
// cons-over-list collapse — to every argument. Widening can swallow
// share-group occurrences (subtree truncation, the list collapse); a
// var node whose group lost occurrences may be instantiated through the
// now-invisible alias, so it is soundly widened to any before the
// canonical renumbering.
func WidenPattern(tab *term.Tab, p *Pattern, k int) *Pattern {
	if p == nil {
		return nil
	}
	args := make([]*Term, len(p.Args))
	changed := false
	for i, a := range p.Args {
		args[i] = Widen(tab, a, k)
		if args[i] != a {
			changed = true
		}
	}
	w := &Pattern{Fn: p.Fn, Args: args}
	if changed {
		before := shareGroupCounts(p)
		if len(before) > 0 {
			after := shareGroupCounts(w)
			var dropped map[int]bool
			for g, n := range before {
				if after[g] < n {
					if dropped == nil {
						dropped = make(map[int]bool)
					}
					dropped[g] = true
				}
			}
			if dropped != nil {
				w = devarifyDropped(w, dropped)
			}
		}
	}
	return w.Canonical()
}

// shareGroupCounts tallies share-group occurrences per group id.
func shareGroupCounts(p *Pattern) map[int]int {
	var out map[int]int
	var walk func(t *Term)
	walk = func(t *Term) {
		if t.Share != 0 {
			if out == nil {
				out = make(map[int]int)
			}
			out[t.Share]++
		}
		for _, c := range t.children() {
			walk(c)
		}
	}
	for _, a := range p.Args {
		walk(a)
	}
	return out
}

// devarifyDropped widens var nodes of the given share groups to any
// (their swallowed co-occurrences may instantiate them invisibly).
func devarifyDropped(p *Pattern, groups map[int]bool) *Pattern {
	var rew func(t *Term) *Term
	rew = func(t *Term) *Term {
		out := *t
		if t.Share != 0 && groups[t.Share] && t.Kind == Var {
			out.Kind = Any
		}
		if t.Kind == Struct {
			out.Args = make([]*Term, len(t.Args))
			for i, a := range t.Args {
				out.Args[i] = rew(a)
			}
		}
		if t.Kind == List {
			out.Elem = rew(t.Elem)
		}
		return &out
	}
	args := make([]*Term, len(p.Args))
	for i, a := range p.Args {
		args[i] = rew(a)
	}
	return &Pattern{Fn: p.Fn, Args: args}
}

// ParseAbs parses a test-notation abstract pattern such as
// "p(atom, list(g), [g|list(g)])". Leaf names: any, nv, g (or ground),
// const, atom, int, var, empty, []. list(T) is the list type. sh(N, T)
// marks T as member of share group N. Prolog variables also denote
// var-kind leaves sharing a group per variable name.
func ParseAbs(tab *term.Tab, src string) (*Pattern, error) {
	tm, err := parser.ParseTerm(tab, src)
	if err != nil {
		return nil, err
	}
	fn, ok := term.Indicator(tm)
	if !ok {
		return nil, fmt.Errorf("domain: pattern must be callable")
	}
	varGroups := make(map[*term.VarRef]int)
	nextGroup := 1000 // leave low ids for explicit $sh groups
	var conv func(t *term.Term) (*Term, error)
	conv = func(t *term.Term) (*Term, error) {
		switch t.Kind {
		case term.KVar:
			id, ok := varGroups[t.Ref]
			if !ok {
				nextGroup++
				id = nextGroup
				varGroups[t.Ref] = id
			}
			return &Term{Kind: Var, Share: id}, nil
		case term.KInt:
			return MkLeaf(Intg), nil
		case term.KAtom:
			switch tab.Name(t.Fn.Name) {
			case "any":
				return MkLeaf(Any), nil
			case "nv":
				return MkLeaf(NV), nil
			case "g", "ground":
				return MkLeaf(Ground), nil
			case "const":
				return MkLeaf(Const), nil
			case "atom":
				return MkLeaf(Atom), nil
			case "int", "integer":
				return MkLeaf(Intg), nil
			case "var":
				return MkLeaf(Var), nil
			case "empty":
				return MkLeaf(Empty), nil
			case "[]":
				return MkLeaf(Nil), nil
			default:
				return MkLeaf(Atom), nil
			}
		case term.KStruct:
			name := tab.Name(t.Fn.Name)
			if name == "list" && t.Fn.Arity == 1 {
				e, err := conv(t.Args[0])
				if err != nil {
					return nil, err
				}
				return MkListT(e), nil
			}
			if name == "sh" && t.Fn.Arity == 2 {
				if t.Args[0].Kind != term.KInt {
					return nil, fmt.Errorf("domain: sh group must be an integer")
				}
				inner, err := conv(t.Args[1])
				if err != nil {
					return nil, err
				}
				out := *inner
				out.Share = int(t.Args[0].Int)
				return &out, nil
			}
			args := make([]*Term, len(t.Args))
			for i, a := range t.Args {
				c, err := conv(a)
				if err != nil {
					return nil, err
				}
				args[i] = c
			}
			return MkStructT(t.Fn, args...), nil
		}
		return nil, fmt.Errorf("domain: cannot convert term")
	}
	var args []*Term
	if tm.Kind == term.KStruct {
		args = make([]*Term, len(tm.Args))
		for i, a := range tm.Args {
			c, err := conv(a)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
	}
	return (&Pattern{Fn: fn, Args: args}).Canonical(), nil
}
