package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"awam/api"
	"awam/internal/bench"
)

// FuzzAnalyzeRoutes posts arbitrary bodies to /v1/analyze, /v1/backward
// and /v1/optimize on a Server with a small step budget and short
// deadlines. Whatever the body, the server must not panic or answer
// 500; every non-2xx answer must be a typed JSON error; and every 200
// body must decode as the route's response type with no unknown fields.
//
//	go test -fuzz '^FuzzAnalyzeRoutes$' -fuzztime 15s ./internal/serve
func FuzzAnalyzeRoutes(f *testing.F) {
	routes := []string{"/v1/analyze", "/v1/backward", "/v1/optimize"}
	seed := func(route int, req any) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route), body)
	}
	for _, name := range []string{"nreverse", "qsort", "query", "serialise"} {
		p, ok := bench.ByName(name)
		if !ok {
			f.Fatalf("no Table 1 program %s", name)
		}
		seed(0, api.AnalyzeRequest{Source: p.Source, Depth: 2})
		seed(1, api.BackwardRequest{Source: p.Source, Goals: []string{"main/0"}})
		seed(2, api.OptimizeRequest{Source: p.Source, MeasureRuns: 1, Disasm: true})
	}
	seed(0, api.AnalyzeRequest{Source: "main :- main.", MaxSteps: 1 << 40, TimeoutMS: 1 << 40})
	seed(1, api.BackwardRequest{Source: "p(a).", Goals: []string{"", "/", "p/x", "p/-1", "q/99999999999"}})
	seed(2, api.OptimizeRequest{Source: "main.", Passes: []string{"no-such-pass"}, GateGoals: []string{"(", "main"}})
	seed(2, api.OptimizeRequest{Source: "main.", MeasureRuns: 1 << 30})
	f.Add(uint8(0), []byte(`{"source":"p(a).`))
	f.Add(uint8(1), []byte(`{"source":"p(X) :- q(X","goals":["p/1"]}`))
	f.Add(uint8(2), []byte(`{"source":"p(a).","depth":-1,"timeout_ms":-5}`))
	f.Add(uint8(0), []byte(`{"source":"p(a).","depth":1e9}`))
	f.Add(uint8(1), []byte(`null`))
	f.Add(uint8(2), []byte(`[]`))
	f.Add(uint8(0), bytes.Repeat([]byte("["), 64))
	f.Add(uint8(1), []byte(`{"source":"`+strings.Repeat("f(", 200)+`a`+strings.Repeat(")", 200)+`."}`))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		s, err := New(Config{
			MaxBodyBytes:   1 << 14,
			MaxSteps:       20_000,
			DefaultTimeout: 200 * time.Millisecond,
			MaxTimeout:     500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		switch {
		case rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout:
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		case rec.Code == http.StatusOK:
			var resp any
			switch path {
			case "/v1/analyze":
				resp = &api.AnalyzeResponse{}
			case "/v1/backward":
				resp = &api.BackwardResponse{}
			default:
				resp = &api.OptimizeResponse{}
			}
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(resp); err != nil {
				t.Fatalf("%s: 200 body does not decode as %T: %v\n%s", path, resp, err, rec.Body.Bytes())
			}
		default:
			var eb api.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("%s: status %d with an untyped body %q: %v", path, rec.Code, rec.Body.Bytes(), err)
			}
			switch eb.Error.Code {
			case "bad_request", "body_too_large", "parse_error", "compile_error", "register_limit",
				"budget_exhausted", "deadline_exceeded", "optimize_rejected":
			default:
				t.Fatalf("%s: status %d with error code %q", path, rec.Code, eb.Error.Code)
			}
		}
	})
}
