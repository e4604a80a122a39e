// Package inc implements the incremental analysis engine: it condenses
// the static call graph into strongly connected components, fingerprints
// each component by the content of its compiled code and the
// fingerprints of its callees, and analyzes bottom-up so components
// whose fingerprint matches a cached record reuse the previous run's
// converged summaries (seeded into the extension table via
// core.Config.Warm) instead of being re-explored. After an edit, only
// the dirty cone — the changed components and everything that can reach
// them — pays for analysis again.
//
// The cache (internal/cache) is content-addressed by those fingerprints,
// so there is no invalidation protocol: changed code simply hashes to a
// new address, and stale records age out of the LRU.
package inc

import (
	"sort"

	"awam/internal/term"
	"awam/internal/wam"
)

// SCC is one strongly connected component of the condensed static call
// graph, or a pseudo-component standing in for an undefined callee.
type SCC struct {
	// Members lists the component's predicates in module definition
	// order. A pseudo-component for an undefined callee has exactly one
	// member and Undefined set.
	Members []term.Functor
	// Undefined marks a pseudo-component: the predicate is called but
	// has no clauses. It still gets a fingerprint (derived from its
	// name/arity) so that defining it later changes every caller's
	// fingerprint and dirties their cones.
	Undefined bool
	// Callees holds the indices (into SCCs) of components this one
	// calls, ascending, excluding itself. Because components are emitted
	// in reverse topological order, every callee index is smaller than
	// the component's own.
	Callees []int
}

// Condensation is the SCC condensation of one compiled module's static
// call graph: components, callee edges, the predicate index and code
// spans — everything that does not depend on a fingerprint salt. It is
// never mutated after construction, so one condensation serves every
// consumer of a module: the specializer reads its member lists, and the
// forward and backward engines each fingerprint it under their own salt
// (see Fingerprint).
type Condensation struct {
	Mod *wam.Module
	// SCCs lists components callees-first: every edge goes from a later
	// component to an earlier one.
	SCCs []*SCC
	// PredSCC maps each predicate — defined or undefined-but-called —
	// to the index of its component.
	PredSCC map[term.Functor]int

	// spans maps each defined predicate to its [start,end) code range.
	spans map[term.Functor][2]int
}

// Plan is a condensation fingerprinted under one salt and ready for
// cache probes.
type Plan struct {
	*Condensation
	// Fingerprints holds each component's content address, indexed like
	// SCCs: a hash of its members' compiled code (addresses
	// relativized), the salt, and its callees' fingerprints — so it
	// covers the entire transitive cone. A plan fingerprinted over a cone
	// leaves the components outside it "".
	Fingerprints []string
}

// NewCondensation condenses mod's static call graph. The construction
// is fully deterministic — nodes in definition order, neighbors in code
// order — so the same module always yields the same components in the
// same order.
func NewCondensation(mod *wam.Module) *Condensation {
	c := &Condensation{
		Mod:     mod,
		PredSCC: make(map[term.Functor]int),
		spans:   procSpans(mod),
	}
	nodes, adj := callAdjacency(mod, c.spans)
	c.condense(nodes, adj)
	return c
}

// NewPlan condenses mod and fingerprints every component under the
// forward record schema. context is the configuration salt
// (configContext): records produced under different analysis
// parameters must not be confused, so it is hashed into every
// fingerprint.
func NewPlan(mod *wam.Module, context string) *Plan {
	return NewCondensation(mod).Fingerprint(fpFormat, context, nil, nil)
}

// procSpans computes each defined predicate's code range. Procedures
// are laid out contiguously (the invariant StaticCallEdges and
// Module.OwnerOf also rely on): a procedure's code runs from its entry
// to the next procedure's entry.
func procSpans(mod *wam.Module) map[term.Functor][2]int {
	type span struct {
		start int
		fn    term.Functor
	}
	spans := make([]span, 0, len(mod.Order))
	for _, fn := range mod.Order {
		spans = append(spans, span{start: mod.Procs[fn].Entry, fn: fn})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := make(map[term.Functor][2]int, len(spans))
	for i, s := range spans {
		end := len(mod.Code)
		if i+1 < len(spans) {
			end = spans[i+1].start
		}
		out[s.fn] = [2]int{s.start, end}
	}
	return out
}

// callAdjacency builds the static call graph in deterministic order:
// nodes are the defined predicates in definition order followed by
// undefined callees in first-reference order; each node's neighbor list
// follows the code order of its call sites (deduplicated). The edge
// set is exactly core.StaticCallEdges' (tested); the ordering is what
// that map cannot provide.
func callAdjacency(mod *wam.Module, spans map[term.Functor][2]int) ([]term.Functor, map[term.Functor][]term.Functor) {
	nodes := make([]term.Functor, 0, len(mod.Order))
	nodes = append(nodes, mod.Order...)
	defined := make(map[term.Functor]bool, len(mod.Order))
	for _, fn := range mod.Order {
		defined[fn] = true
	}
	undefinedSeen := make(map[term.Functor]bool)
	adj := make(map[term.Functor][]term.Functor, len(mod.Order))
	for _, fn := range mod.Order {
		sp := spans[fn]
		seen := make(map[term.Functor]bool)
		for addr := sp[0]; addr < sp[1]; addr++ {
			ins := mod.Code[addr]
			if ins.Op != wam.OpCall && ins.Op != wam.OpExecute {
				continue
			}
			if !seen[ins.Fn] {
				seen[ins.Fn] = true
				adj[fn] = append(adj[fn], ins.Fn)
			}
			if !defined[ins.Fn] && !undefinedSeen[ins.Fn] {
				undefinedSeen[ins.Fn] = true
				nodes = append(nodes, ins.Fn)
			}
		}
	}
	return nodes, adj
}

// condense runs Tarjan's algorithm over the ordered graph. Tarjan emits
// components in reverse topological order (a component completes only
// after everything it reaches), which is exactly the bottom-up order
// the engine analyzes in; member lists are normalized to definition
// order so the condensation is schedule-free.
func (c *Condensation) condense(nodes []term.Functor, adj map[term.Functor][]term.Functor) {
	orderIdx := make(map[term.Functor]int, len(nodes))
	for i, fn := range nodes {
		orderIdx[fn] = i
	}
	index := make(map[term.Functor]int, len(nodes))
	low := make(map[term.Functor]int, len(nodes))
	onStack := make(map[term.Functor]bool, len(nodes))
	var stack []term.Functor
	next := 0

	var strongconnect func(v term.Functor)
	strongconnect = func(v term.Functor) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []term.Functor
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			sort.Slice(members, func(i, j int) bool {
				return orderIdx[members[i]] < orderIdx[members[j]]
			})
			id := len(c.SCCs)
			scc := &SCC{Members: members}
			if _, ok := c.spans[members[0]]; !ok {
				scc.Undefined = true
			}
			c.SCCs = append(c.SCCs, scc)
			for _, m := range members {
				c.PredSCC[m] = id
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	// Cross-component callee lists, ascending, self excluded.
	for i, scc := range c.SCCs {
		seen := make(map[int]bool)
		for _, m := range scc.Members {
			for _, w := range adj[m] {
				if j := c.PredSCC[w]; j != i && !seen[j] {
					seen[j] = true
					scc.Callees = append(scc.Callees, j)
				}
			}
		}
		sort.Ints(scc.Callees)
	}
}

// StaticEdges re-derives the condensation's edge relation in the shape
// core.StaticCallEdges produces; the equivalence test pins the two
// views of the call graph together.
func (c *Condensation) StaticEdges() map[[2]term.Functor]bool {
	edges := make(map[[2]term.Functor]bool)
	for _, fn := range c.Mod.Order {
		sp := c.spans[fn]
		for addr := sp[0]; addr < sp[1]; addr++ {
			ins := c.Mod.Code[addr]
			if ins.Op == wam.OpCall || ins.Op == wam.OpExecute {
				edges[[2]term.Functor{fn, ins.Fn}] = true
			}
		}
	}
	return edges
}
