package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"awam"
	"awam/api"
	"awam/internal/bench"
)

func postBackward(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/backward", "application/json", strings.NewReader(body))
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

// TestBackwardEndToEnd: a demand query round-trips through HTTP with
// typed demands, and a repeat query is served warm from the shared
// store (zero components re-executed).
func TestBackwardEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	body, _ := json.Marshal(api.BackwardRequest{Source: testProg, Goals: []string{"app/3"}})

	resp, data := postBackward(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out api.BackwardResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response: %v\n%s", err, data)
	}
	d, ok := out.Demands["app/3"]
	if !ok || !d.Callable || d.Call != "app(nv, any, any)" {
		t.Fatalf("app/3 demand = %+v (demands: %v)", d, out.Demands)
	}
	if len(d.Args) != 3 || d.Args[0].Type != awam.TypeNonVar {
		t.Errorf("app/3 args = %+v", d.Args)
	}
	if out.Stats.VisitedSCCs == 0 || out.Stats.VisitedSCCs > out.Stats.TotalSCCs {
		t.Errorf("stats = %+v", out.Stats)
	}
	if out.Stats.ExecutedSCCs == 0 {
		t.Error("cold query executed no components")
	}

	// Same query again: everything served from the daemon's store.
	resp2, data2 := postBackward(t, ts, string(body))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp2.StatusCode, data2)
	}
	var warm api.BackwardResponse
	if err := json.Unmarshal(data2, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ExecutedSCCs != 0 || warm.Stats.ReusedSCCs != out.Stats.ExecutedSCCs {
		t.Errorf("warm stats = %+v, cold = %+v", warm.Stats, out.Stats)
	}
	if fmt.Sprint(warm.Demands) != fmt.Sprint(out.Demands) {
		t.Error("warm demands differ from cold")
	}
}

// TestBackwardErrors: the error mapping matches /v1/analyze's — typed
// JSON codes for each failure class.
func TestBackwardErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed JSON", "{", http.StatusBadRequest, "bad_request"},
		{"missing source", `{}`, http.StatusBadRequest, "bad_request"},
		{"negative limits", `{"source":"p.","max_steps":-1}`, http.StatusBadRequest, "bad_request"},
		{"parse error", `{"source":"p :- ."}`, http.StatusUnprocessableEntity, "parse_error"},
		{"unknown goal", `{"source":"p(a).","goals":["zap/9"]}`, http.StatusBadRequest, "bad_request"},
		{"bad indicator", `{"source":"p(a).","goals":["p"]}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, data := postBackward(t, ts, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, c.status, data)
			}
			if got := errCode(t, data); got != c.code {
				t.Errorf("code = %q, want %q", got, c.code)
			}
		})
	}
}

// TestBackwardBodyCap: oversized bodies fail with 413, like /v1/analyze.
func TestBackwardBodyCap(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, data := postBackward(t, ts, reqBody(t, strings.Repeat("p(a). ", 64)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if got := errCode(t, data); got != "body_too_large" {
		t.Errorf("code = %q", got)
	}
}

// TestBackwardStepClamp: the server's MaxSteps clamp applies to demand
// queries; an impossible budget surfaces as budget_exhausted.
func TestBackwardStepClamp(t *testing.T) {
	ts := newTestServer(t, Config{MaxSteps: 1})
	resp, data := postBackward(t, ts, reqBody(t, testProg))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if got := errCode(t, data); got != "budget_exhausted" {
		t.Errorf("code = %q", got)
	}
}

// TestBackwardSingleflight: identical concurrent demand queries
// coalesce onto one analysis.
func TestBackwardSingleflight(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	blocking := func(ctx context.Context, source string, opts ...awam.BackwardOption) (*awam.BackwardAnalysis, error) {
		runs.Add(1)
		<-release
		sys, err := awam.Load(source)
		if err != nil {
			return nil, err
		}
		return sys.AnalyzeBackwardContext(ctx, opts...)
	}
	ts := newTestServer(t, Config{Backward: blocking})

	const n = 6
	var wg sync.WaitGroup
	coalesced := make([]bool, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/backward", "application/json",
				strings.NewReader(reqBody(t, testProg)))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var out backwardResponse
			if json.NewDecoder(resp.Body).Decode(&out) == nil {
				coalesced[i] = out.Coalesced
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d backward analyses ran for %d identical requests", got, n)
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
	// Different goals must NOT share a flight with the goal-less query.
	resp, err := http.Post(ts.URL+"/v1/backward", "application/json",
		strings.NewReader(`{"source":"p(a).","goals":["p/1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := runs.Load(); got != 2 {
		t.Fatalf("distinct-goal query did not run its own analysis (runs=%d)", got)
	}
}

// TestBackwardMetrics: /v1/metrics exposes the backward counters and
// they move with traffic.
func TestBackwardMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	if resp, data := postBackward(t, ts, reqBody(t, testProg)); resp.StatusCode != http.StatusOK {
		t.Fatalf("backward: %d %s", resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"awamd_backward_analyses_total 1",
		"awamd_backward_coalesced_total 0",
		"awamd_backward_steps_total",
		"awamd_backward_visited_sccs_total",
		"awamd_backward_reused_sccs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRegisterLimitRoutes checks that /v1/analyze and /v1/backward
// reject a 70,000-level term with one error code.
func TestRegisterLimitRoutes(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := reqBody(t, bench.DeepProgram(70_000).Source)
	for route, post := range map[string]func(*testing.T, *httptest.Server, string) (*http.Response, []byte){
		"/v1/analyze":  postAnalyze,
		"/v1/backward": postBackward,
	} {
		resp, data := post(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, data) != "register_limit" {
			t.Errorf("%s: status %d, code %q, want 422 register_limit", route, resp.StatusCode, errCode(t, data))
		}
	}
}
