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
	"sync"

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

	// calls holds, per member, the predicates the member calls, each
	// once, in code order: the adjacency a derived condensation walks a
	// kept component by instead of scanning its code again.
	calls [][]term.Functor
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

	// Base is set on a condensation derived from another one (Derive):
	// per component, the index of the base component with the same
	// members, in the same order, and the same code, else -1. It is nil
	// on a condensation built from scratch.
	Base []int

	// spans maps each defined predicate to its [start,end) code range;
	// a derived condensation leaves it nil (see span).
	spans map[term.Functor][2]int

	// mu guards memo, the fingerprint memo (Fingerprint) per format and
	// configuration context.
	mu   sync.Mutex
	memo map[string]*fpMemo
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
	// Hashed counts the fingerprints this plan hashed; the others came
	// from the condensation's memo (see Fingerprint).
	Hashed int
}

// NewCondensation condenses mod's static call graph. The construction
// is fully deterministic — nodes in definition order, neighbors in code
// order — so the same module always yields the same components in the
// same order. It is Derive from the empty condensation, which keeps
// nothing: the walk is Tarjan's algorithm over the whole graph. The
// module need not come from compiler.Link (StripUnreachable's does
// not), so its code spans are worked out here.
func NewCondensation(mod *wam.Module) *Condensation {
	c := &Condensation{
		Mod:     mod,
		PredSCC: make(map[term.Functor]int, len(mod.Order)),
		spans:   procSpans(mod),
	}
	newDeriver(&Condensation{}, c, nil).run()
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

// span returns fn's code range, and whether fn is defined. A derived
// condensation's module comes from compiler.Link, which lays each
// procedure out contiguously, so its range is its entry and size.
func (c *Condensation) span(fn term.Functor) ([2]int, bool) {
	if c.spans != nil {
		sp, ok := c.spans[fn]
		return sp, ok
	}
	proc := c.Mod.Procs[fn]
	if proc == nil {
		return [2]int{}, false
	}
	return [2]int{proc.Entry, proc.Entry + proc.Profile.Instructions}, true
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

// procCalls lists the predicates the code in span calls, each once, in
// code order: one node's adjacency.
func procCalls(mod *wam.Module, span [2]int) []term.Functor {
	var out []term.Functor
	var seen map[term.Functor]bool
	for addr := span[0]; addr < span[1]; addr++ {
		ins := mod.Code[addr]
		if ins.Op != wam.OpCall && ins.Op != wam.OpExecute {
			continue
		}
		if seen == nil {
			seen = make(map[term.Functor]bool)
		}
		if !seen[ins.Fn] {
			seen[ins.Fn] = true
			out = append(out, ins.Fn)
		}
	}
	return out
}

// StaticEdges re-derives the condensation's edge relation in the shape
// core.StaticCallEdges produces; the equivalence test pins the two
// views of the call graph together.
func (c *Condensation) StaticEdges() map[[2]term.Functor]bool {
	edges := make(map[[2]term.Functor]bool)
	for _, fn := range c.Mod.Order {
		sp, _ := c.span(fn)
		for addr := sp[0]; addr < sp[1]; addr++ {
			ins := c.Mod.Code[addr]
			if ins.Op == wam.OpCall || ins.Op == wam.OpExecute {
				edges[[2]term.Functor{fn, ins.Fn}] = true
			}
		}
	}
	return edges
}
