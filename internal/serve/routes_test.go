package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"awam/api"
)

// TestRouteCompatibility: every /v1 route answers, and the retired
// unversioned paths (/analyze, /healthz, /metrics) are not routed.
func TestRouteCompatibility(t *testing.T) {
	ts := newTestServer(t, Config{})
	do := func(method, path, body string) (int, string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := do("GET", "/v1/healthz", ""); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/v1/healthz: %d %s", code, body)
	}
	code, metrics := do("GET", "/v1/metrics", "")
	if code != http.StatusOK || !strings.Contains(metrics, "awamd_optimizes_total") {
		t.Fatalf("/v1/metrics: %d, awamd_optimizes_total missing:\n%s", code, metrics)
	}
	code, body := do("POST", "/v1/analyze", reqBody(t, testProg))
	if code != http.StatusOK {
		t.Fatalf("/v1/analyze: %d %s", code, body)
	}
	var resp api.AnalyzeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predicates) == 0 {
		t.Fatal("/v1/analyze returned no predicate summaries")
	}

	for _, r := range []struct{ method, path string }{
		{"POST", "/analyze"}, {"GET", "/healthz"}, {"GET", "/metrics"},
	} {
		if code, _ := do(r.method, r.path, reqBody(t, testProg)); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.path, code)
		}
	}
}

// TestOptimizeEndpoint: POST /v1/optimize runs the gated pipeline and
// reports per-pass stats; requesting the disassembly returns it.
func TestOptimizeEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	b, err := json.Marshal(api.OptimizeRequest{Source: testProg, Disasm: true, MeasureRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var or api.OptimizeResponse
	if err := json.Unmarshal(data, &or); err != nil {
		t.Fatal(err)
	}
	if or.Report == nil || len(or.Report.Passes) == 0 {
		t.Fatalf("no pass reports: %s", data)
	}
	total := 0
	for _, p := range or.Report.Passes {
		if p.Rejected {
			t.Fatalf("pass %s rejected: %s", p.Name, p.RejectReason)
		}
		total += p.Total
	}
	if total == 0 {
		t.Fatal("expected rewrites on the ground-list test program")
	}
	if or.Disasm == "" {
		t.Fatal("requested disasm missing")
	}
	if len(or.Report.GateGoals) == 0 || or.Report.GateGoals[0] != "main" {
		t.Fatalf("gate goals = %v, want main first", or.Report.GateGoals)
	}
}

// TestOptimizeEndpointErrors: bad pass names and unparsable source map
// onto the typed error codes.
func TestOptimizeEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"bad pass", `{"source":"p(a).","passes":["no-such-pass"]}`, http.StatusBadRequest, "bad_request"},
		{"parse error", `{"source":"p(a"}`, http.StatusUnprocessableEntity, "parse_error"},
		{"missing source", `{}`, http.StatusBadRequest, "bad_request"},
		{"negative runs", `{"source":"p(a).","measure_runs":-1}`, http.StatusBadRequest, "bad_request"},
		{"too many runs", `{"source":"p(a).","measure_runs":101}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		if got := errCode(t, data); got != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, got, tc.code)
		}
	}
}

// TestOptimizeDeadline: the gate and the speedup measurement run the
// program concretely, and they stop at the request's deadline. A
// program whose main/0 never ends gets a typed deadline_exceeded, not a
// 200 after billions of machine steps.
func TestOptimizeDeadline(t *testing.T) {
	ts := newTestServer(t, Config{MaxTimeout: 300 * time.Millisecond})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"source":"main :- loop. loop :- loop.","measure_runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, data) != "deadline_exceeded" {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("answered after %v under a 300ms deadline", d)
	}
}
