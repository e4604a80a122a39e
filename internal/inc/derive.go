package inc

import (
	"maps"
	"sort"

	"awam/internal/term"
	"awam/internal/wam"
)

// Derive condenses mod, a module linked from b.Mod (compiler.Link),
// reusing what the edit left alone. copied reports, indexed like
// mod.Order, which predicates Link copied from b.Mod unchanged. The
// result equals NewCondensation(mod), which is the same walk from an
// empty base: the same components, in the same order, with the same
// members and callees.
//
// A base component is kept when each of its members was copied (an
// undefined pseudo-component, when it is still undefined) and every
// component it calls is kept. Kept components form a part of the call
// graph that no edit can reach into: they reach no changed predicate,
// and their members call what they called before. They are not
// condensed again: their members and per-member calls are the base's,
// and only their place in the order and their callee indices are
// worked out anew. Tarjan's algorithm runs over the rest, the dirty
// cone: the changed predicates and every component that can reach one.
//
// The order stays Tarjan's because the walk does what Tarjan's would
// do on the whole graph. A kept component, once entered, is left only
// into other kept components, and nothing on the stack can be reached
// from it, so entering it at a member runs a plain depth-first walk
// through its members' calls, in the same order.
//
// Base records, per component, the base component it equals. Fingerprint
// memos computed on b are carried over for those (see Fingerprint).
func (b *Condensation) Derive(mod *wam.Module, copied []bool) *Condensation {
	// PredSCC starts as the base's: kept components mostly keep their
	// index, so only the others' members are written.
	c := &Condensation{Mod: mod, PredSCC: maps.Clone(b.PredSCC), Base: make([]int, 0, len(b.SCCs))}
	newDeriver(b, c, copied).run()
	return c
}

// newDeriver starts a walk that condenses c.Mod into c, keeping what it
// can of b.
func newDeriver(b, c *Condensation, copied []bool) *deriver {
	kept, count := b.kept(c.Mod, copied)
	return &deriver{
		b: b, c: c, kept: kept, count: count,
		visited: make([]bool, len(b.SCCs)),
		newIdx:  make([]int, len(b.SCCs)),
		index:   make(map[term.Functor]int),
		low:     make(map[term.Functor]int),
		onStack: make(map[term.Functor]bool),
		calls:   make(map[term.Functor][]term.Functor),
	}
}

// run condenses c.Mod into c: it walks the predicates in definition
// order, then drops the base's predicates that are gone from PredSCC
// and carries the base's fingerprint memos over to the components c
// shares with it.
func (d *deriver) run() {
	b, c := d.b, d.c
	for _, fn := range c.Mod.Order {
		if k, ok := d.keptComp(fn); ok {
			if !d.visited[k] {
				d.visitKept(k, fn)
			}
		} else if _, seen := d.index[fn]; !seen {
			d.strongconnect(fn)
		}
	}
	// Base predicates that are gone: those of kept components no call
	// reached (undefined callees nobody calls any more), and those of
	// the other components that the walk did not meet.
	for k, scc := range b.SCCs {
		if d.visited[k] {
			continue
		}
		for _, m := range scc.Members {
			if _, met := d.index[m]; !met {
				delete(c.PredSCC, m)
			}
		}
	}
	d.carryMemo()
}

// kept reports, per base component, whether Derive keeps it, and how
// many of its members Link copied (copied is nil for a module that did
// not come from Link, and then nothing is kept).
func (b *Condensation) kept(mod *wam.Module, copied []bool) (kept []bool, count []int) {
	count = make([]int, len(b.SCCs))
	for i, cp := range copied {
		if cp {
			count[b.PredSCC[mod.Order[i]]]++
		}
	}
	kept = make([]bool, len(b.SCCs))
	for k, scc := range b.SCCs {
		ok := count[k] == len(scc.Members)
		if scc.Undefined {
			ok = mod.Procs[scc.Members[0]] == nil
		}
		for _, j := range scc.Callees {
			ok = ok && kept[j]
		}
		kept[k] = ok
	}
	return kept, count
}

// deriver is the state of one Derive walk: Tarjan's over the dirty
// cone, a plain depth-first walk over kept components. NewCondensation
// runs it with an empty base, so its cone is the whole graph.
type deriver struct {
	b, c *Condensation
	kept []bool
	// count is, per base component, the number of its members Link
	// copied.
	count []int
	// visited marks kept base components entered; newIdx is their index
	// in c once emitted.
	visited []bool
	newIdx  []int
	// Tarjan's state over the dirty cone's predicates.
	index, low map[term.Functor]int
	onStack    map[term.Functor]bool
	stack      []term.Functor
	next       int
	// calls holds the calls read from each cone predicate's code.
	calls map[term.Functor][]term.Functor
	// rank is each predicate's place in mod.Order, built on first use
	// (sortMembers).
	rank map[term.Functor]int
}

// keptComp returns fn's base component when Derive keeps it.
func (d *deriver) keptComp(fn term.Functor) (int, bool) {
	k, ok := d.b.PredSCC[fn]
	return k, ok && d.kept[k]
}

// visitKept enters kept base component k at member e: it walks the
// members depth first from e, entering each kept component a call
// reaches that was not entered yet, then emits k.
func (d *deriver) visitKept(k int, e term.Functor) {
	d.visited[k] = true
	scc := d.b.SCCs[k]
	if len(scc.Members) == 1 {
		for _, w := range scc.calls[0] {
			if j := d.b.PredSCC[w]; j != k && !d.visited[j] {
				d.visitKept(j, w)
			}
		}
		d.emitKept(k)
		return
	}
	seen := make([]bool, len(scc.Members))
	var walk func(mi int)
	walk = func(mi int) {
		seen[mi] = true
		for _, w := range scc.calls[mi] {
			j := d.b.PredSCC[w]
			if j != k {
				if !d.visited[j] {
					d.visitKept(j, w)
				}
			} else if wi := memberIndex(scc.Members, w); !seen[wi] {
				walk(wi)
			}
		}
	}
	walk(memberIndex(scc.Members, e))
	d.emitKept(k)
}

func memberIndex(members []term.Functor, fn term.Functor) int {
	for i, m := range members {
		if m == fn {
			return i
		}
	}
	panic("inc: predicate is not a member of its component")
}

// emitKept appends kept base component k to c. Its members keep the
// base's order unless mod.Order reordered them; its callee indices are
// mapped into c. The base's SCC object is shared when nothing changed.
func (d *deriver) emitKept(k int) {
	c, scc := d.c, d.b.SCCs[k]
	id := len(c.SCCs)
	d.newIdx[k] = id
	members, calls, base := scc.Members, scc.calls, k
	if len(members) > 1 {
		if sorted := d.sortMembers(members); !equalFns(sorted, members) {
			calls = make([][]term.Functor, len(sorted))
			for i, m := range sorted {
				calls[i] = scc.calls[memberIndex(members, m)]
			}
			members, base = sorted, -1
		}
	}
	out := scc
	if base < 0 || id != k || !d.sameIndices(scc.Callees) {
		out = &SCC{Members: members, Undefined: scc.Undefined, Callees: make([]int, len(scc.Callees)), calls: calls}
		for i, j := range scc.Callees {
			out.Callees[i] = d.newIdx[j]
		}
		sort.Ints(out.Callees)
	}
	c.SCCs = append(c.SCCs, out)
	c.Base = append(c.Base, base)
	if id != k {
		for _, m := range members {
			c.PredSCC[m] = id
		}
	}
}

// sameIndices reports whether every base component in callees kept its
// index.
func (d *deriver) sameIndices(callees []int) bool {
	for _, j := range callees {
		if d.newIdx[j] != j {
			return false
		}
	}
	return true
}

// strongconnect is Tarjan's step over a predicate of the dirty cone. A
// call into a kept component enters it (visitKept) if it was not yet:
// nothing there can reach v, so it leaves v's low link alone.
func (d *deriver) strongconnect(v term.Functor) {
	d.index[v] = d.next
	d.low[v] = d.next
	d.next++
	d.stack = append(d.stack, v)
	d.onStack[v] = true
	for _, w := range d.callsOf(v) {
		if k, ok := d.keptComp(w); ok {
			if !d.visited[k] {
				d.visitKept(k, w)
			}
			continue
		}
		if _, seen := d.index[w]; !seen {
			d.strongconnect(w)
			d.low[v] = min(d.low[v], d.low[w])
		} else if d.onStack[w] {
			d.low[v] = min(d.low[v], d.index[w])
		}
	}
	if d.low[v] != d.index[v] {
		return
	}
	var members []term.Functor
	for {
		w := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.onStack[w] = false
		members = append(members, w)
		if w == v {
			break
		}
	}
	if len(members) > 1 {
		members = d.sortMembers(members)
	}
	d.emitCone(members)
}

// callsOf reads v's calls from its code; an undefined predicate has
// none.
func (d *deriver) callsOf(v term.Functor) []term.Functor {
	var out []term.Functor
	if sp, defined := d.c.span(v); defined {
		out = procCalls(d.c.Mod, sp)
	}
	d.calls[v] = out
	return out
}

// sortMembers returns the members of a component of more than one
// predicate, all defined, in definition order. Link lays procedures out
// in that order, so a derived module's is the order of their entries; a
// module from elsewhere (the optimizer moves entries) is ranked by
// mod.Order.
func (d *deriver) sortMembers(members []term.Functor) []term.Functor {
	out := append([]term.Functor(nil), members...)
	if d.c.spans == nil {
		procs := d.c.Mod.Procs
		sort.Slice(out, func(i, j int) bool { return procs[out[i]].Entry < procs[out[j]].Entry })
		return out
	}
	if d.rank == nil {
		d.rank = make(map[term.Functor]int, len(d.c.Mod.Order))
		for i, fn := range d.c.Mod.Order {
			d.rank[fn] = i
		}
	}
	sort.Slice(out, func(i, j int) bool { return d.rank[out[i]] < d.rank[out[j]] })
	return out
}

// emitCone appends a component of the dirty cone to c. Its callees are
// all emitted already; Base names the base component it equals, if
// any: same members in the same order, each copied.
func (d *deriver) emitCone(members []term.Functor) {
	c := d.c
	id := len(c.SCCs)
	scc := &SCC{Members: members, calls: make([][]term.Functor, len(members))}
	if _, ok := c.span(members[0]); !ok {
		scc.Undefined = true
	}
	for _, m := range members {
		c.PredSCC[m] = id
	}
	seen := make(map[int]bool)
	for i, m := range members {
		scc.calls[i] = d.calls[m]
		for _, w := range scc.calls[i] {
			if j := c.PredSCC[w]; j != id && !seen[j] {
				seen[j] = true
				scc.Callees = append(scc.Callees, j)
			}
		}
	}
	sort.Ints(scc.Callees)
	c.SCCs = append(c.SCCs, scc)
	if c.Base != nil {
		c.Base = append(c.Base, d.sameAs(scc))
	}
}

// sameAs returns the base component with scc's members, in order, and
// code, or -1.
func (d *deriver) sameAs(scc *SCC) int {
	k, ok := d.b.PredSCC[scc.Members[0]]
	if !ok || scc.Undefined != d.b.SCCs[k].Undefined || !equalFns(d.b.SCCs[k].Members, scc.Members) {
		return -1
	}
	if !scc.Undefined && d.count[k] != len(scc.Members) {
		return -1
	}
	return k
}

func equalFns(a, b []term.Functor) bool {
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

// carryMemo starts c's fingerprint memo from b's: each component equal
// to a base component inherits that component's memo entry.
func (d *deriver) carryMemo() {
	b, c := d.b, d.c
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.memo) == 0 {
		return
	}
	c.memo = make(map[string]*fpMemo, len(b.memo))
	for key, bm := range b.memo {
		m := &fpMemo{comps: make([]fpComp, len(c.SCCs))}
		for i, k := range c.Base {
			if k >= 0 {
				m.comps[i] = bm.comps[k]
			}
		}
		c.memo[key] = m
	}
}
