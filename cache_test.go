package awam

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"awam/internal/bench"
)

const cacheProg = `
main :- qsort([2,1,3], S), use(S).
qsort([], []).
qsort([X|Xs], S) :- part(Xs, X, L, G), qsort(L, SL), qsort(G, SG), app(SL, [X|SG], S).
part([], _, [], []).
part([Y|Ys], X, [Y|L], G) :- Y =< X, part(Ys, X, L, G).
part([Y|Ys], X, L, [Y|G]) :- Y > X, part(Ys, X, L, G).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
use(_).
`

// TestSummaryCacheWarmRun: the facade route matches a plain worklist
// analysis byte for byte, and a second analysis of the same source is
// served entirely from the cache.
func TestSummaryCacheWarmRun(t *testing.T) {
	sys, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.Analyze(WithStrategy(Worklist))
	if err != nil {
		t.Fatal(err)
	}

	sc, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sys.Analyze(WithSummaryCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Marshal() != ref.Marshal() {
		t.Fatal("cached cold analysis differs from plain worklist analysis")
	}
	if inc, ok := cold.Incremental(); !ok || inc.WarmSCCs != 0 {
		t.Fatalf("cold run incremental accounting = %+v, ok=%t", inc, ok)
	}

	// Fresh System: the daemon re-loads source per request.
	sys2, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys2.Analyze(WithSummaryCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Marshal() != ref.Marshal() {
		t.Fatal("cached warm analysis differs from plain worklist analysis")
	}
	inc, ok := warm.Incremental()
	if !ok {
		t.Fatal("warm run lost its incremental accounting")
	}
	if inc.SCCs == 0 || inc.WarmSCCs != inc.SCCs {
		t.Fatalf("warm run served %d/%d components", inc.WarmSCCs, inc.SCCs)
	}
	if inc.WarmPatterns == 0 {
		t.Fatal("warm run seeded no calling patterns")
	}
	m := warm.Metrics()
	if m.WarmHits == 0 || m.CacheHits == 0 {
		t.Fatalf("public metrics missing cache traffic: warm=%d cache=%d", m.WarmHits, m.CacheHits)
	}
	if st := sc.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Fatalf("cache stats empty after two runs: %+v", st)
	}

	// The cached Analysis supports the full accessor surface.
	if s, ok := warm.Summary("qsort/2"); !ok || len(s.Args) != 2 {
		t.Fatalf("Summary on cached analysis = %+v, ok=%t", s, ok)
	}
	if !strings.Contains(warm.Determinacy(), "qsort(") {
		t.Fatal("Determinacy on cached analysis lost qsort")
	}
}

// TestSummaryCacheOptionConflicts: explicit conflicting options fail
// with ErrBadOption; compatible ones pass.
func TestSummaryCacheOptionConflicts(t *testing.T) {
	sys, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]AnalyzeOption{
		{WithStrategy(Naive), WithSummaryCache(sc)},
		{WithSummaryCache(sc), WithEntry("qsort(list(g), var)")},
	}
	for i, opts := range bad {
		if _, err := sys.Analyze(opts...); !errors.Is(err, ErrBadOption) {
			t.Errorf("conflict case %d: err = %v, want ErrBadOption", i, err)
		}
	}
	// Explicit Worklist and a nil cache are both fine.
	if _, err := sys.Analyze(WithSummaryCache(sc), WithStrategy(Worklist)); err != nil {
		t.Errorf("explicit worklist with cache: %v", err)
	}
	if a, err := sys.Analyze(WithSummaryCache(nil)); err != nil {
		t.Errorf("nil cache: %v", err)
	} else if _, ok := a.Incremental(); ok {
		t.Error("nil cache produced incremental accounting")
	}
}

// TestSummaryCacheIncrementalEdit: after an edit, the facade reuses the
// clean components and still matches a from-scratch analysis.
func TestSummaryCacheIncrementalEdit(t *testing.T) {
	sc, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Analyze(WithSummaryCache(sc)); err != nil {
		t.Fatal(err)
	}

	edited := cacheProg + "\nuse(extra).\n"
	sysE, err := Load(edited)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sysE.Analyze(WithStrategy(Worklist))
	if err != nil {
		t.Fatal(err)
	}
	sysE2, err := Load(edited)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sysE2.Analyze(WithSummaryCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Marshal() != ref.Marshal() {
		t.Fatal("incremental analysis of edited program differs from scratch")
	}
	inc, ok := warm.Incremental()
	if !ok || inc.WarmSCCs == 0 || inc.WarmSCCs >= inc.SCCs {
		t.Fatalf("edit should leave some components warm, some dirty: %+v", inc)
	}
}

// TestSummaryCacheDiskDir: a directory-backed cache survives a new
// SummaryCache over the same directory.
func TestSummaryCacheDiskDir(t *testing.T) {
	dir := t.TempDir()
	sc1, err := NewStore(WithDiskDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Analyze(WithSummaryCache(sc1)); err != nil {
		t.Fatal(err)
	}

	sc2, err := NewStore(WithDiskDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys2.Analyze(WithSummaryCache(sc2))
	if err != nil {
		t.Fatal(err)
	}
	inc, ok := warm.Incremental()
	if !ok || inc.WarmSCCs != inc.SCCs {
		t.Fatalf("restarted cache served %d/%d components", inc.WarmSCCs, inc.SCCs)
	}
	if st := sc2.Stats(); st.DiskLoads == 0 {
		t.Fatalf("no disk loads after restart: %+v", st)
	}
}

// TestStoreBatchMethods: the fabric-protocol surface of a Store —
// positional Has/GetRecords, PutRecords round trip, malformed
// fingerprints skipped.
func TestStoreBatchMethods(t *testing.T) {
	s, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	fps := []string{"aa11", "bb22", "../evil", ""}
	if n := s.PutRecords(fps, [][]byte{[]byte("one"), []byte("two"), []byte("x"), []byte("y")}); n != 2 {
		t.Fatalf("PutRecords stored %d, want 2 (malformed fingerprints skipped)", n)
	}
	has := s.Has(fps)
	if !has[0] || !has[1] || has[2] || has[3] {
		t.Fatalf("Has = %v, want [true true false false]", has)
	}
	recs := s.GetRecords(fps)
	if string(recs[0]) != "one" || string(recs[1]) != "two" || recs[2] != nil || recs[3] != nil {
		t.Fatalf("GetRecords = %q", recs)
	}
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("Stats.Entries = %d, want 2", st.Entries)
	}
}

// TestSummaryJSONEnums: Mode and Type marshal as their conventional
// symbols, so daemon responses are readable without the Go enum.
func TestSummaryJSONEnums(t *testing.T) {
	sys, err := Load(cacheProg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := a.Summary("qsort/2")
	if !ok {
		t.Fatal("no qsort summary")
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	for _, want := range []string{`"Mode":"+g"`, `"CallType":"list"`} {
		if !strings.Contains(js, want) {
			t.Errorf("summary JSON missing %s:\n%s", want, js)
		}
	}
	if strings.Contains(js, `"Mode":1`) {
		t.Errorf("summary JSON leaked enum ordinals:\n%s", js)
	}
}

// TestSummaryCacheAddedPredicate: adding a predicate dirties only the
// components whose cone reaches an added or edited predicate. Every
// other component keeps its fingerprint, because a specialized run
// salts each component with its own stream generation, not with a hash
// of the whole program, and is served from the store.
func TestSummaryCacheAddedPredicate(t *testing.T) {
	base := bench.WideProgramSeeded(64, 1).Source
	for _, tc := range []struct {
		name, edit string
		changed    []string
	}{
		{"unrelated", "zz_new_pred(a).\n", []string{"zz_new_pred/1"}},
		{"new callee", "p3_use(X) :- zz_helper(X).\nzz_helper(_).\n", []string{"p3_use/1", "zz_helper/1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := NewStore()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := Load(base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Analyze(WithSummaryCache(sc)); err != nil {
				t.Fatal(err)
			}
			edited, err := Load(base + tc.edit)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := edited.Analyze(WithStrategy(Worklist))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := edited.Analyze(WithSummaryCache(sc))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Marshal() != ref.Marshal() {
				t.Fatal("incremental analysis of the edited program differs from scratch")
			}
			// A component is dirty when it holds a changed predicate or
			// calls a dirty one; components come callees first.
			plan := warm.inc.Plan
			changed := make(map[int]bool)
			for _, pred := range tc.changed {
				fn, err := parseIndicator(edited.tab, pred)
				if err != nil {
					t.Fatal(err)
				}
				changed[plan.PredSCC[fn]] = true
			}
			dirty := make([]bool, len(plan.SCCs))
			clean := 0
			for i, scc := range plan.SCCs {
				dirty[i] = changed[i]
				for _, j := range scc.Callees {
					dirty[i] = dirty[i] || dirty[j]
				}
				if !dirty[i] {
					clean++
				}
			}
			if warm.inc.WarmSCCs != clean {
				t.Fatalf("served %d/%d components, want every one of the %d clean ones",
					warm.inc.WarmSCCs, len(plan.SCCs), clean)
			}
		})
	}
}

// TestSummaryCacheTranslatesOnlyExploredCone: a warm one-edit analysis
// translates the transfer streams of the components it explores and
// leaves the rest of the program untranslated.
func TestSummaryCacheTranslatesOnlyExploredCone(t *testing.T) {
	base := bench.WideProgramSeeded(64, 1).Source
	sc, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Analyze(WithSummaryCache(sc)); err != nil {
		t.Fatal(err)
	}
	edited, err := Load(base + "p3_use(mutant_1).\n")
	if err != nil {
		t.Fatal(err)
	}
	a, err := edited.Analyze(WithSummaryCache(sc))
	if err != nil {
		t.Fatal(err)
	}
	plan := a.inc.Plan
	explored := 0
	for _, scc := range plan.SCCs {
		for _, fn := range scc.Members {
			if a.res.Metrics.PredRuns[fn] > 0 {
				explored++
				break
			}
		}
	}
	translated := 0
	for _, cs := range edited.specProgram().Comps {
		if cs.Clauses != nil {
			translated++
		}
	}
	t.Logf("translated %d of %d components, explored %d", translated, len(plan.SCCs), explored)
	if explored == 0 || translated == 0 || translated > explored {
		t.Fatalf("translated %d components, explored %d", translated, explored)
	}
	if 10*translated > len(plan.SCCs) {
		t.Fatalf("a one-edit warm run translated %d of %d components", translated, len(plan.SCCs))
	}
}
