package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"awam/api"
	"awam/internal/bench"
)

// decodeBodies are request bodies shaped like the daemon's real
// traffic: json.Marshal output of the api types (which writes <, > and
// & as \u escapes, and Prolog sources are full of them), and
// awambench's hand-assembled backward body.
func decodeBodies(t testing.TB) [][]byte {
	var out [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	for _, p := range bench.Programs {
		add(api.AnalyzeRequest{Source: p.Source, Depth: 2})
		add(api.BackwardRequest{Source: p.Source, Goals: []string{"main/0"}, TimeoutMS: 5000})
	}
	wide := bench.WideProgramSeeded(8, 1).Source
	add(api.AnalyzeRequest{Source: wide + "p3_use(mutant_7).\n"})
	add(map[string]any{"source": wide, "goals": []string{"p1_main/0", "p2_main/0"}, "timeout_ms": 60000})
	lit, _ := json.Marshal(wide)
	out = append(out, append([]byte(`{"goals":["p7_main/0"],"source":`), append(lit, '}')...))
	return out
}

// TestScanRequestAcceptsTraffic: the one-pass scanner, not the
// encoding/json fallback, decodes the daemon's real request shapes, to
// the values encoding/json gives.
func TestScanRequestAcceptsTraffic(t *testing.T) {
	for i, body := range decodeBodies(t) {
		var got, want api.BackwardRequest
		f := reqFields{source: &got.Source, goals: &got.Goals, timeoutMS: &got.TimeoutMS, maxSteps: &got.MaxSteps, depth: &got.Depth}
		if !scanRequest(body, f) {
			t.Fatalf("body %d falls back to encoding/json: %.120s", i, body)
		}
		if err := decodeJSON(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %d: scanner decoded %+v, encoding/json %+v", i, got, want)
		}
	}
}

// FuzzDecodeRequest is the differential test of the one-pass request
// decoder: for any body, decodeAnalyze and decodeBackward must give the
// value and the error encoding/json's decoder gives, and the scanner's
// string reader, on the body as a string token, must accept, reject and
// decode what a byte-by-byte reader does.
//
//	go test -fuzz '^FuzzDecodeRequest$' -fuzztime 15s ./internal/serve
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range decodeBodies(f) {
		f.Add(b)
	}
	for _, s := range []string{
		`{"source":"p(a).","Source":"q(b)."}`,
		`{"SOURCE":"p(a)."}`,
		`{"source":"p(a).","source":"q(b)."}`,
		`{"goals":["a/0"],"goals":["b/0"]}`,
		`{"source":null,"goals":null,"depth":null}`,
		`null`,
		`{"source":"p.","goals":[null,"x"]}`,
		`{"source":"p.","max_steps":99999999999999999999}`,
		`{"source":"p.","depth":-9223372036854775808,"timeout_ms":9223372036854775807}`,
		`{"source":"p.","depth":1e3}`,
		`{"source":"p.","depth":1.0}`,
		`{"source":"p.","depth":-0}`,
		`{"source":"p.","depth":01}`,
		`{"source":"\ud800"}`,
		`{"source":"😀"}`,
		`{"source":"\udc00x"}`,
		`{"source":"é<>&\u0000\/\b\f\n\r\t\"\\"}`,
		`{"source":"\uZZZZ"}`,
		`{"source":"\x"}`,
		"{\"source\":\"\xff\"}",
		"{\"source\":\"\xed\xa0\x80\"}",
		"{\"source\":\"tab\there\"}",
		`{"source":"p."} trailing bytes`,
		`{"source":"p."}{"source":"q."}`,
		` {"source" : "p." , "goals" : [ "a/0" , "b/1" ] } `,
		`{"source":"p.","goals":[]}`,
		`{"source":"p.","unknown":1}`,
		`{"source":"p.",}`,
		`{"source":"p."`,
		`{"source":"p`,
		`[]`,
		``,
		`{}`,
		`"source"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotOK := (&scanner{data: body}).str()
		want, wantOK := scanStrBytewise(body)
		if gotOK != wantOK || got != want {
			t.Fatalf("str: (%q, %t), byte by byte (%q, %t)", got, gotOK, want, wantOK)
		}
		var ga, wa api.AnalyzeRequest
		diffDecode(t, "analyze", decodeAnalyze(body, &ga), decodeJSON(body, &wa), ga, wa)
		var gb, wb api.BackwardRequest
		diffDecode(t, "backward", decodeBackward(body, &gb), decodeJSON(body, &wb), gb, wb)
	})
}

func diffDecode(t *testing.T, route string, gotErr, wantErr error, got, want any) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, encoding/json says %v", route, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, encoding/json says %q", route, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded %#v, encoding/json %#v", route, got, want)
	}
}

// TestHostileContentLength: the body buffer is presized from
// Content-Length only up to the body cap. A 1 TB header over a small
// body is served, and a body over the cap still gets 413.
func TestHostileContentLength(t *testing.T) {
	const limit = 1 << 12
	small := reqBody(t, testProg)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(small))
	req.ContentLength = 1 << 40
	data, err := readBody(rec, req, limit)
	if err != nil || string(data) != small {
		t.Fatalf("readBody = %q, %v", data, err)
	}
	if cap(data) > limit+1 {
		t.Fatalf("a 1 TB Content-Length presized the buffer to %d bytes (cap %d)", cap(data), limit)
	}

	s, err := New(Config{MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body   string
		status int
	}{
		{small, http.StatusOK},
		{reqBody(t, strings.Repeat("a(x). ", limit)), http.StatusRequestEntityTooLarge},
	} {
		for _, path := range []string{"/v1/analyze", "/v1/backward"} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			req.ContentLength = 1 << 40
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("%s, %d-byte body under a 1 TB Content-Length: status %d, want %d: %s",
					path, len(tc.body), rec.Code, tc.status, rec.Body.Bytes())
			}
		}
	}
}

// TestResponsesCompact: responses are written as compact JSON on one
// line, with no indentation pass.
func TestResponsesCompact(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, data := postAnalyze(t, ts, reqBody(t, testProg))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), compact.String()+"\n"; got != want {
		t.Fatalf("response is not compact JSON:\n%s", data)
	}
}

// scanStrBytewise is scanner.str one byte at a time: the reference for
// the bulk reader.
func scanStrBytewise(data []byte) (string, bool) {
	s := &scanner{data: data}
	if !s.eat('"') {
		return "", false
	}
	var b strings.Builder
	for s.i < len(s.data) {
		c := s.data[s.i]
		switch {
		case c == '"':
			return b.String(), true
		case c == '\\':
			if !s.escape(&b) {
				return "", false
			}
			continue
		case c < 0x20:
			return "", false
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			s.i++
			continue
		}
		r, n := utf8.DecodeRune(s.data[s.i:])
		if r == utf8.RuneError && n == 1 {
			return "", false
		}
		b.Write(s.data[s.i : s.i+n])
		s.i += n
	}
	return "", false
}

// BenchmarkDecodeRequest decodes the /v1/backward body of a wide_512
// query (BenchmarkServeBackward's), which is mostly the source string.
func BenchmarkDecodeRequest(b *testing.B) {
	src := bench.WideProgramSeeded(512, 1).Source
	body, _ := json.Marshal(api.BackwardRequest{Source: src, Goals: []string{"p7_main/0"}})
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req api.BackwardRequest
		if err := decodeBackward(body, &req); err != nil || req.Source != src {
			b.Fatal("wide_512 body not decoded")
		}
	}
}
