package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"awam"
	"awam/api"
	"awam/internal/bench"
)

// newCachedServer returns a daemon and its test server, so a test can
// inspect the program cache behind the routes.
func newCachedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// uniqueProg is testProg plus one fact naming i: a distinct source for
// every i.
func uniqueProg(i int) string { return testProg + fmt.Sprintf("tag(t%d).\n", i) }

// mustOK returns a check that a route answered 200, shaped to take a
// post helper's results directly.
func mustOK(t *testing.T) func(*http.Response, []byte) {
	return func(resp *http.Response, data []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
}

// TestProgramCacheAdmitsOnSecondSight: a source loaded once is not
// kept, one loaded twice is, and a stream of distinct one-off sources
// never evicts it.
func TestProgramCacheAdmitsOnSecondSight(t *testing.T) {
	s, ts := newCachedServer(t, Config{MaxConcurrent: 2})
	body := reqBody(t, testProg)
	mustOK(t)(postAnalyze(t, ts, body))
	if n := s.programs.residentCount(); n != 0 {
		t.Fatalf("first sight admitted the program: %d resident", n)
	}
	mustOK(t)(postBackward(t, ts, body))
	if n := s.programs.residentCount(); n != 1 {
		t.Fatalf("second sight: %d resident, want 1", n)
	}
	for i := 0; i < 3*recentDigests; i++ {
		mustOK(t)(postAnalyze(t, ts, reqBody(t, uniqueProg(i))))
	}
	if n := s.programs.residentCount(); n != 1 {
		t.Fatalf("one-off sources were admitted: %d resident", n)
	}
	misses := s.programs.misses.Load()
	mustOK(t)(postAnalyze(t, ts, body))
	if got := s.programs.misses.Load(); got != misses {
		t.Fatalf("repeat of the admitted program parsed again (%d misses, was %d)", got, misses)
	}
}

// TestProgramCacheBound: no more than MaxConcurrent programs are ever
// resident, and the least recently used one goes first.
func TestProgramCacheBound(t *testing.T) {
	const limit = 3
	s, ts := newCachedServer(t, Config{MaxConcurrent: limit})
	for i := 0; i < 3*limit; i++ {
		for k := 0; k < 2; k++ {
			mustOK(t)(postAnalyze(t, ts, reqBody(t, uniqueProg(i))))
			if n := s.programs.residentCount(); n > limit {
				t.Fatalf("%d programs resident, limit %d", n, limit)
			}
		}
	}
	if n := s.programs.residentCount(); n != limit {
		t.Fatalf("%d programs resident after %d repeated sources, want %d", n, 3*limit, limit)
	}
	hits := s.programs.hits.Load()
	mustOK(t)(postAnalyze(t, ts, reqBody(t, uniqueProg(3*limit-1))))
	if s.programs.hits.Load() != hits+1 {
		t.Fatal("most recent program was evicted")
	}
	misses := s.programs.misses.Load()
	mustOK(t)(postAnalyze(t, ts, reqBody(t, uniqueProg(0))))
	if s.programs.misses.Load() != misses+1 {
		t.Fatal("least recently used program was not evicted")
	}
}

// TestProgramCacheCoalescesLoads: N concurrent first loads of one
// source parse it once, share one System, and admit it.
func TestProgramCacheCoalescesLoads(t *testing.T) {
	const n = 8
	c := newProgramCache(4)
	var parses atomic.Int64
	c.parse = func(src string) (*awam.System, error) {
		parses.Add(1)
		// Hold the load open until every other request has joined it.
		for c.hits.Load() < n-1 {
			runtime.Gosched()
		}
		return awam.Load(src)
	}
	systems := make([]*awam.System, n)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := c.load(context.Background(), newSource(testProg))
			if err != nil {
				t.Error(err)
			}
			systems[i] = sys
		}()
	}
	wg.Wait()
	if parses.Load() != 1 || c.misses.Load() != 1 {
		t.Fatalf("%d concurrent loads parsed %d times (%d misses), want 1", n, parses.Load(), c.misses.Load())
	}
	for _, sys := range systems[1:] {
		if sys != systems[0] {
			t.Fatal("coalesced loads returned different Systems")
		}
	}
	if c.residentCount() != 1 {
		t.Fatal("a source requested concurrently was not admitted")
	}
}

// TestProgramCacheErrors: a source that fails to load gets the same
// typed 422 on every repeat, on both routes, and is never kept.
func TestProgramCacheErrors(t *testing.T) {
	s, ts := newCachedServer(t, Config{})
	for _, tc := range []struct {
		name, source, code string
	}{
		{"parse", "main :- .", "parse_error"},
		{"deep", bench.DeepProgram(70_000).Source, "register_limit"},
	} {
		body := reqBody(t, tc.source)
		for i := 0; i < 3; i++ {
			for route, post := range map[string]func(*testing.T, *httptest.Server, string) (*http.Response, []byte){
				"/v1/analyze":  postAnalyze,
				"/v1/backward": postBackward,
			} {
				resp, data := post(t, ts, body)
				if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, data) != tc.code {
					t.Errorf("%s %s repeat %d: status %d, code %q, want 422 %s",
						tc.name, route, i, resp.StatusCode, errCode(t, data), tc.code)
				}
			}
		}
	}
	if n := s.programs.residentCount(); n != 0 {
		t.Fatalf("%d failed programs resident", n)
	}
	if h := s.programs.hits.Load(); h != 0 {
		t.Fatalf("%d failed loads served from the cache", h)
	}
}

// TestProgramCacheByteIdentity: summaries and demands served from a
// resident program are JSON-identical to a fresh daemon's, for the
// Table 1 suite and a seeded wide program, after other requests have
// interned atoms into the resident program's symbol table.
func TestProgramCacheByteIdentity(t *testing.T) {
	type prog struct{ name, source, goal string }
	var progs []prog
	for _, name := range bench.Names() {
		p, _ := bench.ByName(name)
		progs = append(progs, prog{name, p.Source, "main/0"})
	}
	progs = append(progs, prog{"wide_64", bench.WideProgramSeeded(64, 1).Source, "p3_main/0"})

	predicates := func(t *testing.T, ts *httptest.Server, src string) string {
		resp, data := postAnalyze(t, ts, reqBody(t, src))
		mustOK(t)(resp, data)
		var out api.AnalyzeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(out.Predicates)
		return string(b)
	}
	demands := func(t *testing.T, ts *httptest.Server, src, goal string) string {
		body, _ := json.Marshal(api.BackwardRequest{Source: src, Goals: []string{goal}})
		resp, data := postBackward(t, ts, string(body))
		mustOK(t)(resp, data)
		var out api.BackwardResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(out.Demands)
		return string(b)
	}

	cached, cts := newCachedServer(t, Config{MaxConcurrent: len(progs)})
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			fresh := newTestServer(t, Config{})
			wantPreds := predicates(t, fresh, p.source)
			wantDemands := demands(t, newTestServer(t, Config{}), p.source, p.goal)

			predicates(t, cts, p.source)
			predicates(t, cts, p.source) // second sight: admitted
			hits := cached.programs.hits.Load()
			// Dirty the resident symbol table before the compared queries.
			unknown, _ := json.Marshal(api.BackwardRequest{Source: p.source, Goals: []string{"no_such_goal/7"}})
			if resp, _ := postBackward(t, cts, string(unknown)); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("unknown goal: status %d", resp.StatusCode)
			}
			if got := predicates(t, cts, p.source); got != wantPreds {
				t.Errorf("cached predicates differ:\n got %s\nwant %s", got, wantPreds)
			}
			if got := demands(t, cts, p.source, p.goal); got != wantDemands {
				t.Errorf("cached demands differ:\n got %s\nwant %s", got, wantDemands)
			}
			if got := cached.programs.hits.Load() - hits; got != 3 {
				t.Errorf("%d program hits on the compared requests, want 3", got)
			}
		})
	}
}

// TestProgramCacheMetrics: /v1/metrics reports resident programs and
// program loads by outcome.
func TestProgramCacheMetrics(t *testing.T) {
	_, ts := newCachedServer(t, Config{})
	for i := 0; i < 3; i++ {
		mustOK(t)(postBackward(t, ts, reqBody(t, testProg)))
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE awamd_programs_resident gauge",
		"awamd_programs_resident 1",
		"# TYPE awamd_program_loads_total counter",
		`awamd_program_loads_total{result="hit"} 1`,
		`awamd_program_loads_total{result="miss"} 2`,
		"# HELP awamd_requests_total Completed /v1/analyze, /v1/backward",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// BenchmarkServeBackward times one warm /v1/backward query on wide_512
// through the daemon's handler, against a summary store primed with
// every family goal. hit serves the query from the resident program;
// miss empties the program cache first, so the query parses, compiles
// and condenses wide_512 again, as every query did before programs
// stayed resident.
func BenchmarkServeBackward(b *testing.B) {
	src := bench.WideProgramSeeded(512, 1).Source
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/backward", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	goals := make([]string, 512)
	for i := range goals {
		goals[i] = fmt.Sprintf("p%d_main/0", i)
	}
	prime, _ := json.Marshal(api.BackwardRequest{Source: src, Goals: goals, TimeoutMS: 60_000})
	post(prime)
	query, _ := json.Marshal(api.BackwardRequest{Source: src, Goals: []string{"p7_main/0"}})

	b.Run("hit", func(b *testing.B) {
		post(query) // second sight: the program becomes resident
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(query)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.programs = newProgramCache(s.cfg.MaxConcurrent)
			b.StartTimer()
			post(query)
		}
	})
}

// TestProgramCacheDerives: a miss derives the edited source from the
// last program loaded, counts the derivation on /v1/metrics, and
// answers with the summaries a fresh daemon gives the edited source.
// A neutral edit of one family of wide_32 hashes the fingerprints and
// computes the summaries of its dirty cone only: the edited predicate
// and its callers up to main. Then 24 random one-clause edits of
// wide_32, each against the unedited source, as an editor sends them;
// every miss after the first load derives.
func TestProgramCacheDerives(t *testing.T) {
	s, ts := newCachedServer(t, Config{})
	src := bench.WideProgramSeeded(32, 1).Source
	predicates := func(h http.Handler, src string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(reqBody(t, src))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var out api.AnalyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(out.Predicates)
		return string(b)
	}
	fresh := func(src string) string {
		f, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return predicates(f.Handler(), src)
	}
	counts := func() [4]int64 {
		return [4]int64{s.fpReused.Load(), s.fpHashed.Load(), s.sumsStored.Load(), s.sumsComputed.Load()}
	}
	predicates(s.Handler(), src)
	if n := s.programs.derivations.Load(); n != 0 {
		t.Fatalf("first load counted %d derivations", n)
	}
	before := counts()
	edited := src + "p3_use(mutant_1).\n"
	if got, want := predicates(s.Handler(), edited), fresh(edited); got != want {
		t.Fatalf("neutral edit: derived summaries differ:\n got %s\nwant %s", got, want)
	}
	if n := s.programs.derivations.Load(); n != 1 {
		t.Fatalf("neutral edit: %d derivations, want 1", n)
	}
	after := counts()
	// The cone: p3_use/1, p3_check/2, p3_main/0 and main/0, each a
	// component of its own.
	reused, hashed := after[0]-before[0], after[1]-before[1]
	stored, computed := after[2]-before[2], after[3]-before[3]
	if hashed != 4 || reused == 0 {
		t.Errorf("neutral edit: %d fingerprints hashed, %d reused; want the 4 of its cone hashed", hashed, reused)
	}
	if computed != 4 || stored == 0 {
		t.Errorf("neutral edit: %d summaries computed, %d stored; want the 4 of its cone computed", computed, stored)
	}
	// An edited caller adds a calling pattern to p3_app/3, whose
	// component is clean: its stored summary no longer matches its
	// entries.
	edited = src + "p3_use(_) :- p3_app(a, b, _).\n"
	before = counts()
	if got, want := predicates(s.Handler(), edited), fresh(edited); got != want {
		t.Fatalf("new calling pattern: derived summaries differ:\n got %s\nwant %s", got, want)
	}
	if computed := counts()[3] - before[3]; computed < 5 {
		t.Errorf("new calling pattern: %d summaries computed, want p3_app/3's too", computed)
	}

	sent := map[string]bool{src: true, src + "p3_use(mutant_1).\n": true, edited: true}
	spans := clauses(t, src)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		at := r.Intn(len(spans))
		var edit, what string
		switch r.Intn(5) {
		case 0:
			edit, what = fmt.Sprintf("p%d_use(mutant_%d).\n", r.Intn(32), i), "neutral fact"
			edit = strings.Join(spans[:at], "") + edit + strings.Join(spans[at:], "")
		case 1:
			edit, what = strings.Join(spans[:at], "")+strings.Join(spans[at+1:], ""), "delete"
		case 2:
			edit, what = strings.Join(spans[:at], "")+spans[r.Intn(len(spans))]+strings.Join(spans[at:], ""), "duplicate"
		case 3:
			f := r.Intn(32)
			edit, what = src+fmt.Sprintf("p%d_use(_) :- p%d_check(0, _).\n", f, f), "back-call"
		default:
			edit, what = src+fmt.Sprintf("extra%d(X) :- ( X = a -> true ; \\+ X = b ).\n", i), "control"
		}
		if got, want := predicates(s.Handler(), edit), fresh(edit); got != want {
			t.Fatalf("edit %d (%s): derived summaries differ:\n got %s\nwant %s", i, what, got, want)
		}
		sent[edit] = true
	}
	// wide_32 and the few atoms the edits add never double the shared
	// table, so every miss after the first load derives.
	misses, derivations := s.programs.misses.Load(), s.programs.derivations.Load()
	if derivations != misses-1 || misses < int64(len(sent)) {
		t.Errorf("%d derivations over %d misses of %d distinct sources; want every miss but the first derived", derivations, misses, len(sent))
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	end := counts()
	for _, want := range []string{
		"# TYPE awamd_program_derivations_total counter",
		fmt.Sprintf("awamd_program_derivations_total %d", misses-1),
		fmt.Sprintf(`awamd_program_loads_total{result="miss"} %d`, misses),
		"# TYPE awamd_fingerprints_total counter",
		fmt.Sprintf(`awamd_fingerprints_total{result="reused"} %d`, end[0]),
		fmt.Sprintf(`awamd_fingerprints_total{result="hashed"} %d`, end[1]),
		"# TYPE awamd_summaries_total counter",
		fmt.Sprintf(`awamd_summaries_total{result="stored"} %d`, end[2]),
		fmt.Sprintf(`awamd_summaries_total{result="computed"} %d`, end[3]),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// clauses splits src into its clauses, each with the layout before it.
func clauses(t *testing.T, src string) []string {
	var out []string
	start := 0
	for i := 0; i < len(src); i++ {
		if src[i] == '.' && (i+1 == len(src) || src[i+1] == '\n') {
			end := min(i+2, len(src))
			out = append(out, src[start:end])
			start = end
		}
	}
	if start < len(src) {
		t.Fatalf("wide source does not end with a clause: %q", src[start:])
	}
	return out
}

// TestProgramCacheTableBounded: 2,000 one-clause edits, each naming a
// fresh atom, through one daemon. Derived programs share one symbol
// table, which the daemon replaces by loading fresh once it has doubled,
// so it never holds more than twice its fresh size plus the atoms of
// the one request that crossed the bound: its fresh atom and the names
// an analysis interns at run time.
func TestProgramCacheTableBounded(t *testing.T) {
	post := func(s *Server, i int) *awam.System {
		body := reqBody(t, testProg+fmt.Sprintf("tag(t%d).\n", i))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("edit %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		return s.programs.base
	}
	newServer := func() *Server {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// One request on a fresh table: the atoms it adds after its load.
	atoms, atLoad := post(newServer(), 0).TableSize()
	bound, perRequest := rebaseFactor*atLoad, atoms-atLoad+1

	s := newServer()
	const edits = 2000
	maxAtoms := 0
	for i := 0; i < edits; i++ {
		atoms, _ := post(s, i).TableSize()
		maxAtoms = max(maxAtoms, atoms)
	}
	if maxAtoms > bound+perRequest {
		t.Errorf("shared table reached %d atoms, bound %d (+%d for the crossing request)", maxAtoms, bound, perRequest)
	}
	misses, derived := s.programs.misses.Load(), s.programs.derivations.Load()
	if misses != edits {
		t.Fatalf("%d misses over %d distinct sources", misses, edits)
	}
	// Each fresh load after the first is a rebase; the rest derived.
	if rebases := misses - derived - 1; rebases < 1 || derived < edits/2 {
		t.Errorf("%d edits: %d derived, %d rebases", edits, derived, rebases)
	}
}

// BenchmarkServeAnalyze times a one-edit /v1/analyze through the
// daemon's handler, each request's source a wide program plus a
// distinct neutral fact, against a store primed with the program.
// derived runs with a base present, so each request derives its program
// from the last one: on wide_32 (derived), wide_128 and wide_512, so the
// cost can be read against the edit's cone, which is the same few
// components at every size. fresh empties the program cache first, so
// each request loads its wide_32 program fresh, as every edit did
// before derivation.
func BenchmarkServeAnalyze(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		src := bench.WideProgramSeeded(n, 1).Source
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		post := func(src string) {
			body, _ := json.Marshal(api.AnalyzeRequest{Source: src})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		post(src)
		k := 0
		edit := func() string {
			k++
			return src + fmt.Sprintf("p%d_use(mutant_%d).\n", k%n, k)
		}
		name := "derived"
		if n != 32 {
			name = fmt.Sprintf("derived_wide_%d", n)
		}
		b.Run(name, func(b *testing.B) {
			post(edit())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(edit())
			}
		})
		if n != 32 {
			continue
		}
		b.Run("fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.programs = newProgramCache(s.cfg.MaxConcurrent)
				next := edit()
				b.StartTimer()
				post(next)
			}
		})
	}
}
