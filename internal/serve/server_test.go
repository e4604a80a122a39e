package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"awam"
)

const testProg = `
main :- app([1,2], [3], X), use(X).
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
use(_).
`

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postAnalyze(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func reqBody(t *testing.T, source string) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"source": source})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, data)
	}
	return eb.Error.Code
}

// TestAnalyzeEndToEnd: a real analysis round-trips through HTTP; the
// response carries summaries with symbolic modes, and a repeat request
// is served warm from the shared cache.
func TestAnalyzeEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})

	resp, data := postAnalyze(t, ts, reqBody(t, testProg))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out analyzeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	app, ok := out.Predicates["app/3"]
	if !ok {
		t.Fatalf("app/3 missing from response: %s", data)
	}
	if !app.Succeeds || len(app.Args) != 3 {
		t.Fatalf("app/3 summary wrong: %+v", app)
	}
	if !strings.Contains(string(data), `"+g"`) {
		t.Fatalf("modes not symbolic in JSON: %s", data)
	}
	if out.Incremental == nil || out.Incremental.WarmSCCs != 0 {
		t.Fatalf("cold request incremental accounting: %+v", out.Incremental)
	}

	// The summaries must agree with a direct library analysis.
	sys, err := awam.Load(testProg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.Analyze(awam.WithStrategy(awam.Worklist))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Summary("app/3")
	if app.Success != want.Success || app.Call != want.Call {
		t.Fatalf("daemon summary %+v != library summary %+v", app, want)
	}

	// Second request: fully warm.
	_, data2 := postAnalyze(t, ts, reqBody(t, testProg))
	var out2 analyzeResponse
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Incremental == nil || out2.Incremental.WarmSCCs != out2.Incremental.SCCs {
		t.Fatalf("repeat request not fully warm: %+v", out2.Incremental)
	}
	if out2.Cache.Hits == 0 {
		t.Fatalf("cache hits not reported: %+v", out2.Cache)
	}
}

// TestAnalyzeErrors: each failure class gets its typed code and status.
func TestAnalyzeErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 2048})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed JSON", "{", http.StatusBadRequest, "bad_request"},
		{"missing source", `{}`, http.StatusBadRequest, "bad_request"},
		{"negative limits", `{"source":"a.","max_steps":-1}`, http.StatusBadRequest, "bad_request"},
		{"parse error", reqBody(t, "main :- ."), http.StatusUnprocessableEntity, "parse_error"},
		{"oversized body", reqBody(t, strings.Repeat("a(x). ", 1000)), http.StatusRequestEntityTooLarge, "body_too_large"},
		{"budget exhausted", `{"source":` + mustJSON(testProg) + `,"max_steps":1}`, http.StatusUnprocessableEntity, "budget_exhausted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postAnalyze(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if got := errCode(t, data); got != tc.code {
				t.Fatalf("code %q, want %q", got, tc.code)
			}
		})
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestAnalyzeDeadline: a request deadline shorter than the analysis
// fails with deadline_exceeded, promptly.
func TestAnalyzeDeadline(t *testing.T) {
	slow := func(ctx context.Context, _ string, _ ...awam.AnalyzeOption) (*awam.Analysis, error) {
		select {
		case <-time.After(5 * time.Second):
			t.Error("analysis not canceled")
			return nil, context.DeadlineExceeded
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
		}
	}
	ts := newTestServer(t, Config{Analyze: slow})
	start := time.Now()
	resp, data := postAnalyze(t, ts, `{"source":"a.","timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := errCode(t, data); got != "deadline_exceeded" {
		t.Fatalf("code %q", got)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline not enforced promptly")
	}
}

// TestSingleflight: concurrent identical requests run ONE analysis; the
// rest join it and are marked coalesced.
func TestSingleflight(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	blocking := func(ctx context.Context, source string, opts ...awam.AnalyzeOption) (*awam.Analysis, error) {
		runs.Add(1)
		<-release
		sys, err := awam.Load(source)
		if err != nil {
			return nil, err
		}
		return sys.AnalyzeContext(ctx, opts...)
	}
	ts := newTestServer(t, Config{Analyze: blocking})

	const n = 8
	var wg sync.WaitGroup
	coalesced := make([]bool, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
				strings.NewReader(reqBody(t, testProg)))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var out analyzeResponse
			if json.NewDecoder(resp.Body).Decode(&out) == nil {
				coalesced[i] = out.Coalesced
			}
		}(i)
	}
	// Give the requests time to pile onto the flight, then release it.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d analyses ran for %d identical requests", got, n)
	}
	joined := 0
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d failed with %d", i, codes[i])
		}
		if coalesced[i] {
			joined++
		}
	}
	if joined != n-1 {
		t.Fatalf("%d/%d requests coalesced, want %d", joined, n, n-1)
	}
}

// TestHealthzAndMetrics: the sidecar endpoints respond and the metrics
// reflect traffic.
func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	postAnalyze(t, ts, reqBody(t, testProg))
	postAnalyze(t, ts, "{")

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`awamd_requests_total{result="ok"} 1`,
		`awamd_requests_total{result="error"} 1`,
		"awamd_analyses_total 1",
		"# TYPE awamd_cache_hits_total counter",
		"awamd_cache_entries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMethodRouting: wrong methods 404/405 rather than analyzing.
func TestMethodRouting(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("GET /v1/analyze succeeded: %d", resp.StatusCode)
	}
}
