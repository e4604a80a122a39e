// Package fuzz implements differential soundness fuzzing for the
// analyzer: a seeded random Prolog program generator, a concrete-vs-
// abstract oracle, and a shrinker for failing cases.
//
// The oracle mechanizes the paper's Section 3 soundness claim. For
// each generated query it abstracts the concrete call into a calling
// pattern, analyzes the program to a fixpoint, runs the same query
// concretely under the reference interpreter (internal/refint), and
// checks that every observed answer substitution is a member of the
// inferred success pattern's concretization (domain.Member). On top of
// that it cross-checks the three fixpoint strategies against each
// other and applies metamorphic checks: reordering clauses or renaming
// predicates must not change the computed summaries.
package fuzz

// Case is one generated (or externally supplied) fuzz input: a Prolog
// program plus a set of single-goal queries, every one of which
// terminates by construction under the generator's templates.
type Case struct {
	// Seed reproduces the case via Generate(Seed, cfg); zero for cases
	// that did not come from the generator.
	Seed    int64    `json:"seed,omitempty"`
	Source  string   `json:"source"`
	Queries []string `json:"queries"`
}

// Violation is a counterexample found by the oracle. It serializes to
// JSON so cmd/fuzzdiff soak runs can emit machine-readable reports.
type Violation struct {
	// Kind is one of "soundness" (a concrete answer escapes some
	// strategy's abstract summary), "bottom-success" (a strategy
	// claims failure but the query succeeds), "strategy-divergence"
	// (strict mode: worklist and naive results are not byte-identical),
	// "metamorphic-reorder", "metamorphic-rename", or
	// "backward-consistency" (a forward analysis from an inferred
	// weakest demand refutes success).
	Kind    string `json:"kind"`
	Seed    int64  `json:"seed,omitempty"`
	Source  string `json:"source"`
	Query   string `json:"query"`
	Detail  string `json:"detail"`
	Clauses int    `json:"clauses"`
	// DivergedPred and DivergedPair identify the first diverging table
	// entry of a strategy-divergence: the calling pattern whose row
	// differs, and the two summaries ("bottom" / "missing" when one
	// side lacks the row entirely). Empty for other kinds.
	DivergedPred string   `json:"diverged_pred,omitempty"`
	DivergedPair []string `json:"diverged_pair,omitempty"`
}

// Stats summarizes one oracle run over a case.
type Stats struct {
	// Queries is the number of queries fully checked.
	Queries int
	// Solutions is the number of concrete answer substitutions checked
	// against abstract summaries.
	Solutions int
	// Skipped counts queries abandoned early: undefined or builtin
	// goals, step-budget exhaustion, or runtime errors in the concrete
	// interpreter (any solutions observed before the error are still
	// checked).
	Skipped int
	// Diverged counts byte-level worklist/naive disagreements that
	// were tolerated because Options.StrictCross was off (each
	// strategy's summary is still individually checked for soundness).
	Diverged int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Queries += s2.Queries
	s.Solutions += s2.Solutions
	s.Skipped += s2.Skipped
	s.Diverged += s2.Diverged
}
