// Package backward implements the demand-driven backward analysis: for
// each predicate in the demanded cone of a goal set, it infers the
// weakest abstract call pattern — a demand — under which the abstract
// semantics cannot refute success and every builtin is used error-free
// (arithmetic over evaluable expressions, type tests on the demanded
// class, and so on), in the spirit of King & Lu's backward analysis for
// logic programs.
//
// It is a second fixpoint over the machinery the forward engine already
// built. Demands live in the same widened type domain (internal/domain,
// extended with the gfp-direction Meet); propagation runs per strongly
// connected component of internal/inc's condensation, ascending — a
// component's demand depends only on its callees' demands and forward
// success patterns — and visits only the cone reachable from the goal
// predicates. Converged component demands are cached in cache.Store
// records content-addressed by the same fingerprints as forward
// summaries under a distinct format salt ("awam-bwd-fp 1"), so backward
// results warm-start through the memory/disk/fabric tiers exactly like
// forward ones: a clean repeat query re-executes zero components.
//
// The inferred demand is validated against the forward analysis, not
// the concrete semantics: analyzing forward from a demand must report a
// non-bottom success pattern (the soundness oracle wired into the fuzz
// harness). Joining clause demands and abstracting multiplicity away
// both lose precision in the usual abstract-interpretation sense;
// DESIGN §3.15 spells out the guarantees and the gaps.
package backward

import (
	"sort"
	"strings"
	"time"

	"awam/internal/cache"
	"awam/internal/domain"
	"awam/internal/inc"
	"awam/internal/term"
)

// Result is one backward analysis outcome: per-predicate demands over
// the visited cone, plus fixpoint and cache accounting.
type Result struct {
	Tab *term.Tab
	// Plan is the shared condensation with the demanded cone (and the
	// components it calls) fingerprinted under the demand record salt.
	Plan *inc.Plan
	// Program is the control-expanded program the demands were
	// computed over: Analyze's exp argument, never a fresh expansion.
	Program *term.Program
	// Demands maps every predicate of the visited cone — goal
	// predicates, their transitive demand callees, and undefined
	// pseudo-components — to its weakest inferred call pattern; nil is
	// bottom (no call can be shown safe: the predicate is undefined,
	// can never succeed, or needs something the domain cannot express).
	Demands map[term.Functor]*domain.Pattern
	// Visited lists the visited component indices, ascending; the cone
	// criterion is len(Visited) ≪ len(Plan.SCCs) on wide programs.
	Visited []int

	// Steps counts abstract transfer steps (one per body goal walked);
	// Iterations counts gfp sweeps over component members.
	Steps      int64
	Iterations int
	// VisitedSCCs = len(Visited); TotalSCCs = len(Plan.SCCs).
	// ReusedSCCs were served from the summary store; ExecutedSCCs ran
	// the gfp. Undefined pseudo-components count in neither.
	VisitedSCCs, TotalSCCs   int
	ReusedSCCs, ExecutedSCCs int
	// Store is the summary store's state after the run.
	Store cache.Stats
	// Phase wall-clock: cone discovery and cone fingerprinting (the
	// condensation itself is the caller's), the lazy forward success
	// pre-pass (zero when every component was served), and the gfp.
	CondenseDur, ForwardDur, SolveDur time.Duration
}

// DemandFor returns the inferred demand for fn; ok is false when fn was
// outside the visited cone. A nil demand with ok=true is bottom.
func (r *Result) DemandFor(fn term.Functor) (*domain.Pattern, bool) {
	d, ok := r.Demands[fn]
	return d, ok
}

// marshalHeader versions the presentation format (and the cache record
// layout, which reuses the per-line shape).
const marshalHeader = "awam-bwd 1"

// Marshal renders the demands of the visited cone, one line per
// predicate sorted by name/arity — byte-identical for byte-identical
// results, which is what the cold-vs-warm acceptance check compares.
func (r *Result) Marshal() string {
	var keys []string
	for _, idx := range r.Visited {
		for _, m := range r.Plan.SCCs[idx].Members {
			keys = append(keys, r.Tab.FuncString(m)+" "+demandText(r.Tab, r.Demands[m]))
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(marshalHeader)
	b.WriteByte('\n')
	for _, k := range keys {
		b.WriteString("demand ")
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return b.String()
}

// Predicates returns the visited predicates sorted by name/arity.
func (r *Result) Predicates() []term.Functor {
	var fns []term.Functor
	for _, idx := range r.Visited {
		fns = append(fns, r.Plan.SCCs[idx].Members...)
	}
	sort.Slice(fns, func(i, j int) bool {
		return r.Tab.FuncString(fns[i]) < r.Tab.FuncString(fns[j])
	})
	return fns
}
