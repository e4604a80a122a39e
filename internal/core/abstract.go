package core

import (
	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/term"
)

// abstractID interns the pattern abstractArgs builds for the cells at
// argAddrs, counting interner traffic. A pattern that needs no widening
// goes from the cells straight into the interner (internHeap); any
// other is built as a tree, widened and interned. Both paths give the
// same ID.
func (a *Analyzer) abstractID(fn term.Functor, argAddrs []int) domain.PatternID {
	id, hit, ok := a.internHeap(fn, argAddrs)
	if ok {
		a.countIntern(hit)
	} else {
		id = a.intern(a.abstractArgs(fn, argAddrs))
	}
	if a.absCheck != nil {
		a.absCheck(ok, fn, argAddrs, id)
	}
	return id
}

// heapAbs is the analyzer's scratch for internHeap. marks is indexed by
// heap address and stamped with the abstraction it belongs to, so a new
// abstraction invalidates every mark by bumping gen. ids is the child-ID
// stack of the interning pass.
type heapAbs struct {
	gen    uint32
	marks  []heapMark
	groups int
	ids    []domain.TermID
}

// heapMark is one open cell's state within an abstraction: how often
// the checking pass reached it, and the share group the interning pass
// gave it (0 until then).
type heapMark struct {
	gen   uint32
	seen  int32
	group int32
}

// internHeap interns the pattern for the cells at argAddrs straight
// from the heap, building no Term tree, when Widen would leave convert's
// tree unchanged: every structure and alpha-list sits above depth k, and
// no cons cell's tail is an alpha-list (a tail chain that reaches one
// ends in such a cell, and only such a chain triggers the uniform-list
// closure). The tree is then its own widening, and Canonical only
// numbers its share groups, which are the open cells reached twice, in
// first-occurrence preorder. The first pass checks the condition and
// counts the visits of each open cell; the second numbers the groups in
// that order and interns each node from its cell. A cyclic term exceeds
// every depth, so it takes the tree path. ok is false when the pattern
// needs the tree path; otherwise id and hit are what Intern of
// abstractArgs' pattern returns.
func (a *Analyzer) internHeap(fn term.Functor, argAddrs []int) (id domain.PatternID, hit, ok bool) {
	s := &a.habs
	s.gen++
	if s.gen == 0 {
		clear(s.marks)
		s.gen = 1
	}
	if n := len(a.h.Cells); n > len(s.marks) {
		s.marks = append(s.marks, make([]heapMark, n-len(s.marks))...)
	}
	for _, addr := range argAddrs {
		if !a.scanHeap(addr, a.cfg.Depth) {
			return 0, false, false
		}
	}
	s.groups = 0
	for _, addr := range argAddrs {
		s.ids = append(s.ids, a.heapNode(addr))
	}
	id, hit = a.in.InternNodes(fn, s.ids)
	s.ids = s.ids[:0]
	return id, hit, true
}

// scanHeap reports whether the term at addr, with depth budget k, is
// one Widen leaves unchanged (see internHeap), counting the visits of
// its open cells.
func (a *Analyzer) scanHeap(addr, k int) bool {
	addr = a.h.Deref(addr)
	cell := a.h.At(addr)
	kind := a.cellKind(cell)
	switch kind {
	case domain.Empty:
		return false
	case domain.Struct:
		if k < 2 {
			return false
		}
		fn, first := a.cellStruct(cell)
		if fn == a.tab.ConsFunctor() && a.h.At(a.h.Deref(first+1)).Tag == rt.AList {
			return false
		}
		for i := 0; i < fn.Arity; i++ {
			if !a.scanHeap(first+i, k-1) {
				return false
			}
		}
		return true
	}
	if kind.Open() {
		m := &a.habs.marks[addr]
		if m.gen != a.habs.gen {
			*m = heapMark{gen: a.habs.gen}
		}
		m.seen++
	}
	if kind == domain.List {
		return k >= 2 && a.scanHeap(cell.A, k-1)
	}
	return true
}

// heapNode interns the term at addr, which scanHeap accepted in this
// abstraction, numbering share groups as it first meets them.
func (a *Analyzer) heapNode(addr int) domain.TermID {
	s := &a.habs
	addr = a.h.Deref(addr)
	cell := a.h.At(addr)
	kind := a.cellKind(cell)
	share := 0
	if kind.Open() {
		if m := &s.marks[addr]; m.seen > 1 {
			if m.group == 0 {
				s.groups++
				m.group = int32(s.groups)
			}
			share = int(m.group)
		}
	}
	switch kind {
	case domain.Struct:
		fn, first := a.cellStruct(cell)
		base := len(s.ids)
		for i := 0; i < fn.Arity; i++ {
			s.ids = append(s.ids, a.heapNode(first+i))
		}
		id := a.in.Node(domain.Struct, 0, fn, 0, s.ids[base:])
		s.ids = s.ids[:base]
		return id
	case domain.List:
		return a.in.Node(domain.List, share, term.Functor{}, a.heapNode(cell.A), nil)
	}
	return a.in.Node(kind, share, term.Functor{}, 0, nil)
}

// cellKind is the kind of the abstract term a dereferenced heap cell
// converts to: Struct for a cons pair (Lis) or a structure (Str), and
// Empty for a cell no argument can reach, which converts to an unshared
// any. Constants abstract to atom/integer (AbsType, Section 4.2).
func (a *Analyzer) cellKind(c rt.Cell) domain.Kind {
	switch c.Tag {
	case rt.Ref, rt.AVar:
		return domain.Var
	case rt.AAny:
		return domain.Any
	case rt.ANV:
		return domain.NV
	case rt.AGround:
		return domain.Ground
	case rt.AConst:
		return domain.Const
	case rt.AAtom:
		return domain.Atom
	case rt.AInt, rt.Int:
		return domain.Intg
	case rt.Con:
		if c.F.Name == a.tab.Nil {
			return domain.Nil
		}
		return domain.Atom
	case rt.AList:
		return domain.List
	case rt.Lis, rt.Str:
		return domain.Struct
	}
	return domain.Empty
}

// cellStruct returns the functor of a Struct-kind cell and the address
// of its first argument; the arguments are consecutive.
func (a *Analyzer) cellStruct(c rt.Cell) (term.Functor, int) {
	if c.Tag == rt.Lis {
		return a.tab.ConsFunctor(), c.A
	}
	return a.h.At(c.A).F, c.A + 1
}

// abstractArgs builds the canonical pattern describing the cells at
// argAddrs — "term abstraction before a predicate invocation" (Section
// 6). Constants abstract to atom/integer (AbsType), concrete structure
// is kept, sharing of open cells becomes share groups, and the result is
// widened to the configured term depth with var-occurrences that cross
// the depth boundary soundly generalized.
func (a *Analyzer) abstractArgs(fn term.Functor, argAddrs []int) *domain.Pattern {
	// One scratch abstractor per analyzer, generation-stamped: bumping
	// gen invalidates every map entry at once, so the per-call clear()
	// walks (measurable at call-event frequency) disappear. The *Term
	// nodes escape into the pattern; the map storage does not. An
	// Analyzer runs on one goroutine, so the reuse needs no locking.
	if a.absScratch == nil {
		a.absScratch = &abstractor{a: a, first: make(map[int]genTerm), ids: make(map[int]genInt)}
		a.absBusy = make(map[int]bool)
	}
	conv := a.absScratch
	conv.gen++
	conv.nids = 0
	// busy needs no generation: convert pairs every insertion with a
	// delete on unwind, so the map is empty between calls.
	busy := a.absBusy
	args := make([]*domain.Term, len(argAddrs))
	for i, addr := range argAddrs {
		args[i] = conv.convert(addr, busy)
	}
	// Widen argument-wise without renumbering so the group counts below
	// stay comparable.
	widened := false
	wargs := make([]*domain.Term, len(args))
	for i := range args {
		wargs[i] = domain.Widen(a.tab, args[i], a.cfg.Depth)
		if wargs[i] != args[i] {
			widened = true
		}
	}
	p := domain.NewPattern(fn, wargs)
	// Widening can swallow share-group occurrences (subtree truncation,
	// cons-chain collapse). A var node whose group lost occurrences may
	// be instantiated through the now-invisible alias, so it must widen
	// to any. When nothing was widened, no group can have been dropped.
	if widened && conv.nids > 0 {
		before := countGroups(domain.NewPattern(fn, args))
		after := countGroups(p)
		dropped := make(map[int]bool)
		for g, n := range before {
			if after[g] < n {
				dropped[g] = true
			}
		}
		if len(dropped) > 0 {
			p = devarifyGroups(p, dropped)
		}
	}
	return p.Canonical()
}

// countGroups tallies share-group occurrences per group id.
func countGroups(p *domain.Pattern) map[int]int {
	out := make(map[int]int)
	var walk func(t *domain.Term)
	walk = func(t *domain.Term) {
		if t.Share != 0 {
			out[t.Share]++
		}
		if t.Kind == domain.Struct {
			for _, a := range t.Args {
				walk(a)
			}
		}
		if t.Kind == domain.List {
			walk(t.Elem)
		}
	}
	for _, a := range p.Args {
		walk(a)
	}
	return out
}

// genTerm/genInt are generation-stamped scratch-map values: an entry is
// live only when its gen matches the abstractor's current generation, so
// advancing the generation invalidates the whole map without a clear.
type genTerm struct {
	gen uint64
	t   *domain.Term
}

type genInt struct {
	gen uint64
	v   int
}

type abstractor struct {
	a   *Analyzer
	gen uint64
	// first remembers the node built for an open cell's first
	// occurrence; a group id is only allocated when the cell is reached
	// again (singleton groups would be dropped by Canonical anyway, and
	// most cells are singletons).
	first map[int]genTerm
	ids   map[int]genInt // heap addr -> share group id (2+ occurrences)
	nids  int            // groups allocated this generation
}

// share wires node t into addr's share group, lazily creating the group
// on the second occurrence.
func (c *abstractor) share(addr int, t *domain.Term) {
	if g, ok := c.ids[addr]; ok && g.gen == c.gen {
		t.Share = g.v
		return
	}
	if f, ok := c.first[addr]; ok && f.gen == c.gen {
		c.nids++
		id := c.nids
		c.ids[addr] = genInt{gen: c.gen, v: id}
		f.t.Share = id
		t.Share = id
		return
	}
	c.first[addr] = genTerm{gen: c.gen, t: t}
}

// convert maps a heap cell to an abstract term. busy guards against
// cyclic heap structure (possible without occurs check): a cycle widens
// to any.
func (c *abstractor) convert(addr int, busy map[int]bool) *domain.Term {
	addr = c.a.h.Deref(addr)
	if busy[addr] {
		return domain.Top()
	}
	cell := c.a.h.At(addr)
	switch kind := c.a.cellKind(cell); kind {
	case domain.Var, domain.Any, domain.NV, domain.Ground, domain.Const:
		t := &domain.Term{Kind: kind}
		c.share(addr, t)
		return t
	case domain.Atom, domain.Intg, domain.Nil:
		return domain.MkLeaf(kind)
	case domain.List:
		t := &domain.Term{Kind: domain.List}
		c.share(addr, t)
		busy[addr] = true
		t.Elem = c.convert(cell.A, busy)
		delete(busy, addr)
		return t
	case domain.Struct:
		fn, first := c.a.cellStruct(cell)
		args := make([]*domain.Term, fn.Arity)
		busy[addr] = true
		for i := range args {
			args[i] = c.convert(first+i, busy)
		}
		delete(busy, addr)
		return domain.MkStructT(fn, args...)
	}
	return domain.Top()
}

// devarifyGroups widens var nodes belonging to the given share groups to
// any (their truncated co-occurrences may instantiate them invisibly).
func devarifyGroups(p *domain.Pattern, groups map[int]bool) *domain.Pattern {
	var rew func(t *domain.Term) *domain.Term
	rew = func(t *domain.Term) *domain.Term {
		out := *t
		if t.Share != 0 && groups[t.Share] && t.Kind == domain.Var {
			out.Kind = domain.Any
		}
		if t.Kind == domain.Struct {
			out.Args = make([]*domain.Term, len(t.Args))
			for i, a := range t.Args {
				out.Args[i] = rew(a)
			}
		}
		if t.Kind == domain.List {
			out.Elem = rew(t.Elem)
		}
		return &out
	}
	args := make([]*domain.Term, len(p.Args))
	for i, a := range p.Args {
		args[i] = rew(a)
	}
	return domain.NewPattern(p.Fn, args)
}

// materialize creates fresh heap cells realizing the pattern's argument
// types, honoring share groups (group members become the same cell).
// It returns the root addresses.
func (a *Analyzer) materialize(p *domain.Pattern) []int {
	if a.matGroups == nil {
		a.matGroups = make(map[int]genInt)
	}
	a.matGen++
	groups := a.matGroups
	out := make([]int, len(p.Args))
	for i, t := range p.Args {
		out[i] = a.materializeTerm(t, groups)
	}
	return out
}

func (a *Analyzer) materializeTerm(t *domain.Term, groups map[int]genInt) int {
	if t.Share != 0 {
		if g, ok := groups[t.Share]; ok && g.gen == a.matGen {
			return g.v
		}
	}
	var addr int
	switch t.Kind {
	case domain.Var:
		addr = a.h.PushVar()
	case domain.Any, domain.Empty:
		// Bottom argument types cannot occur in reachable patterns; any
		// is the safe stand-in.
		addr = a.h.Push(rt.Cell{Tag: rt.AAny})
	case domain.NV:
		addr = a.h.Push(rt.Cell{Tag: rt.ANV})
	case domain.Ground:
		addr = a.h.Push(rt.Cell{Tag: rt.AGround})
	case domain.Const:
		addr = a.h.Push(rt.Cell{Tag: rt.AConst})
	case domain.Atom:
		addr = a.h.Push(rt.Cell{Tag: rt.AAtom})
	case domain.Intg:
		addr = a.h.Push(rt.Cell{Tag: rt.AInt})
	case domain.Nil:
		addr = a.h.Push(rt.MkCon(a.tab.Nil))
	case domain.List:
		elem := a.materializeTerm(t.Elem, groups)
		addr = a.h.Push(rt.Cell{Tag: rt.AList, A: elem})
	case domain.Struct:
		if t.Fn.Name == a.tab.Dot && t.Fn.Arity == 2 {
			car := a.materializeTerm(t.Args[0], groups)
			cdr := a.materializeTerm(t.Args[1], groups)
			pair := a.h.Push(rt.MkRef(car))
			a.h.Push(rt.MkRef(cdr))
			addr = a.h.Push(rt.Cell{Tag: rt.Lis, A: pair})
		} else {
			args := make([]int, len(t.Args))
			for i, arg := range t.Args {
				args[i] = a.materializeTerm(arg, groups)
			}
			fnAddr := a.h.Push(rt.Cell{Tag: rt.Fun, F: t.Fn})
			for _, arg := range args {
				a.h.Push(rt.MkRef(arg))
			}
			addr = a.h.Push(rt.Cell{Tag: rt.Str, A: fnAddr})
		}
	default:
		addr = a.h.Push(rt.Cell{Tag: rt.AAny})
	}
	if t.Share != 0 {
		groups[t.Share] = genInt{gen: a.matGen, v: addr}
	}
	return addr
}
