package core

import (
	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/term"
)

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
		args[i] = conv.convert(addr, 1, busy)
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

func (c *abstractor) leaf(kind domain.Kind, addr, depth int) *domain.Term {
	t := &domain.Term{Kind: kind}
	if kind.Open() {
		c.share(addr, t)
	}
	_ = depth
	return t
}

// convert maps a heap cell to an abstract term. busy guards against
// cyclic heap structure (possible without occurs check): a cycle widens
// to any.
func (c *abstractor) convert(addr, depth int, busy map[int]bool) *domain.Term {
	h := c.a.h
	addr = h.Deref(addr)
	if busy[addr] {
		return domain.Top()
	}
	cell := h.At(addr)
	switch cell.Tag {
	case rt.Ref, rt.AVar:
		return c.leaf(domain.Var, addr, depth)
	case rt.AAny:
		return c.leaf(domain.Any, addr, depth)
	case rt.ANV:
		return c.leaf(domain.NV, addr, depth)
	case rt.AGround:
		return c.leaf(domain.Ground, addr, depth)
	case rt.AConst:
		return c.leaf(domain.Const, addr, depth)
	case rt.AAtom:
		return domain.MkLeaf(domain.Atom)
	case rt.AInt:
		return domain.MkLeaf(domain.Intg)
	case rt.Con:
		if cell.F.Name == c.a.tab.Nil {
			return domain.MkLeaf(domain.Nil)
		}
		// AbsType of a constant is atom (Section 4.2).
		return domain.MkLeaf(domain.Atom)
	case rt.Int:
		return domain.MkLeaf(domain.Intg)
	case rt.AList:
		t := &domain.Term{Kind: domain.List}
		c.share(addr, t)
		busy[addr] = true
		t.Elem = c.convert(cell.A, depth+1, busy)
		delete(busy, addr)
		return t
	case rt.Lis:
		busy[addr] = true
		car := c.convert(cell.A, depth+1, busy)
		cdr := c.convert(cell.A+1, depth+1, busy)
		delete(busy, addr)
		return domain.MkStructT(c.a.tab.ConsFunctor(), car, cdr)
	case rt.Str:
		fn := h.At(cell.A)
		args := make([]*domain.Term, fn.F.Arity)
		busy[addr] = true
		for i := 0; i < fn.F.Arity; i++ {
			args[i] = c.convert(cell.A+1+i, depth+1, busy)
		}
		delete(busy, addr)
		return domain.MkStructT(fn.F, args...)
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
