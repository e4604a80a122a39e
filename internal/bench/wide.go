package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// WideProgram generates a synthetic benchmark with the given number of
// independent predicate families, for scaling experiments on the
// fixpoint engines (BenchmarkStrategy). Each family combines a
// renamed copy of the naive-reverse/length/check cluster — recursive
// predicates whose analysis produces realistic list-typed calling
// patterns — with a fan of calls to a family-local dispatch predicate,
// one distinct functor per call. Atoms all abstract to the same `atom`
// element and the depth-k restriction caps list-shape diversity, but
// distinct functors stay distinct under abstraction, so the fan gives
// the table one calling pattern per functor: the extension table grows
// linearly with the family count while each entry's clause work stays
// constant. That is the regime where extension-table and worklist
// bookkeeping dominate the analysis cost. Wide programs
// are deliberately not part of Programs or Extended: they measure
// engine scaling, not the paper's Table 1.
func WideProgram(families int) Program {
	return WideProgramSeeded(families, 0)
}

// WideProgramSeeded is WideProgram with an explicit randomization seed.
// Seed 0 reproduces WideProgram's fixed output byte for byte (the
// committed BENCH_PR3.json depends on its schedule-invariant counters).
// A non-zero seed perturbs the per-family shape — fan width, seed-list
// contents, and dispatch-argument structure — from a rand.Rand local to
// this call; there is deliberately no package-level generator state, so
// two calls with the same (families, seed) are always identical. The
// seed is recorded in the returned Program so harnesses can print it
// and failures reproduce.
func WideProgramSeeded(families int, seed int64) Program {
	var r *rand.Rand
	if seed != 0 {
		r = rand.New(rand.NewSource(seed))
	}
	// pick returns the deterministic legacy value when unseeded and a
	// uniform draw from [lo, hi] otherwise.
	pick := func(legacy, lo, hi int) int {
		if r == nil {
			return legacy
		}
		return lo + r.Intn(hi-lo+1)
	}
	atoms := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var b strings.Builder
	mains := make([]string, families)
	for i := 0; i < families; i++ {
		fan := pick(24, 12, 32)
		seedList := "[a,b,c,d,e,f]"
		if r != nil {
			elems := make([]string, pick(6, 3, 8))
			for j := range elems {
				elems[j] = atoms[r.Intn(len(atoms))]
			}
			seedList = "[" + strings.Join(elems, ",") + "]"
		}
		goals := []string{
			fmt.Sprintf("p%[1]d_rev(%[2]s, R), p%[1]d_len(R, N), p%[1]d_check(N, R)", i, seedList),
		}
		for f := 0; f < fan; f++ {
			arg := "[b]"
			if r != nil {
				// Vary the second dispatch argument's shape; each option
				// abstracts to a distinct element, so the per-functor
				// calling patterns stay distinct across shapes too.
				switch r.Intn(3) {
				case 0:
					arg = "[b]"
				case 1:
					arg = atoms[r.Intn(len(atoms))]
				default:
					arg = fmt.Sprintf("%d", r.Intn(100))
				}
			}
			goals = append(goals, fmt.Sprintf("p%d_q(k%d(a, %s))", i, f, arg))
		}
		fmt.Fprintf(&b, `
p%[1]d_main :- %[2]s.
p%[1]d_rev([], []).
p%[1]d_rev([X|T], R) :- p%[1]d_rev(T, RT), p%[1]d_app(RT, [X], R).
p%[1]d_app([], L, L).
p%[1]d_app([X|L1], L2, [X|L3]) :- p%[1]d_app(L1, L2, L3).
p%[1]d_len([], 0).
p%[1]d_len([_|T], N) :- p%[1]d_len(T, M), N is M+1.
p%[1]d_check(0, _).
p%[1]d_check(N, L) :- N > 0, p%[1]d_use(L).
p%[1]d_use(_).
p%[1]d_q(_).
`, i, strings.Join(goals, ", "))
		mains[i] = fmt.Sprintf("p%d_main", i)
	}
	fmt.Fprintf(&b, "\nmain :- %s.\n", strings.Join(mains, ", "))
	name := fmt.Sprintf("wide_%d", families)
	if seed != 0 {
		name = fmt.Sprintf("wide_%d_s%d", families, seed)
	}
	return Program{
		Name:   name,
		Source: b.String(),
		Seed:   seed,
	}
}

// DeepProgram generates `main :- p(f(f(...f(a)...))).` with levels nested
// f/1 and `p(_).`. Each level of a body argument takes one temporary
// register, so beyond wam.MaxRegister levels (about 65,535) the compiler
// rejects the clause with compiler.ErrRegisterLimit; below it the
// analysis reports p(+g).
func DeepProgram(levels int) Program {
	return Program{
		Name:   fmt.Sprintf("deep_%d", levels),
		Source: "main :- p(" + strings.Repeat("f(", levels) + "a" + strings.Repeat(")", levels) + ").\np(_).\n",
	}
}
