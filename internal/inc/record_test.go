package inc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
)

// analyzeWorklist runs a plain worklist analysis (the record producer's
// view) and returns the result.
func analyzeWorklist(t *testing.T, src string) (*term.Tab, *core.Result) {
	t.Helper()
	tab, mod := mustCompile(t, src)
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyWorklist
	res, err := core.NewWith(mod, cfg).AnalyzeAllContext(context.Background())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return tab, res
}

// TestRecordRoundTrip encodes a real analysis' entries and decodes them
// into a fresh symbol table, comparing pattern text (the cross-table
// canonical form) for calls, successes and traces.
func TestRecordRoundTrip(t *testing.T) {
	prog, _ := bench.ByName("qsort")
	tab, res := analyzeWorklist(t, prog.Source)
	data := EncodeRecord(tab, res.Entries)

	tab2 := term.NewTab()
	got, err := DecodeRecord(tab2, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(res.Entries) {
		t.Fatalf("entries: got %d, want %d", len(got), len(res.Entries))
	}
	for i, re := range got {
		e := res.Entries[i]
		if w, g := domain.PatternText(tab, e.CP), domain.PatternText(tab2, re.CP); w != g {
			t.Fatalf("entry %d call: got %s, want %s", i, g, w)
		}
		wantSucc, gotSucc := "bottom", "bottom"
		if e.Succ != nil {
			wantSucc = domain.PatternText(tab, e.Succ)
		}
		if re.Succ != nil {
			gotSucc = domain.PatternText(tab2, re.Succ)
		}
		if wantSucc != gotSucc {
			t.Fatalf("entry %d succ: got %s, want %s", i, gotSucc, wantSucc)
		}
		if len(re.Deps) != len(e.Consults) {
			t.Fatalf("entry %d deps: got %d, want %d", i, len(re.Deps), len(e.Consults))
		}
		for j, dep := range re.Deps {
			if w, g := domain.PatternText(tab, e.Consults[j]), domain.PatternText(tab2, dep); w != g {
				t.Fatalf("entry %d dep %d: got %s, want %s", i, j, g, w)
			}
		}
	}

	// Re-encoding the decoded entries must reproduce the bytes: the
	// store-merge path depends on byte-stable re-encoding.
	ents := make([]*core.Entry, len(got))
	for i, re := range got {
		ents[i] = &core.Entry{CP: re.CP, Succ: re.Succ, Consults: re.Deps}
	}
	if data2 := EncodeRecord(tab2, ents); string(data2) != string(data) {
		t.Fatal("re-encoding decoded entries changed the bytes")
	}
}

// TestDecodeRecordErrors drives every malformed-record path; all must
// return typed errors, never panic.
func TestDecodeRecordErrors(t *testing.T) {
	good := "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc p(g)\ntrace 0 1\ndep q(g)\n"
	if _, err := DecodeRecord(term.NewTab(), []byte(good)); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad header", "awam-scc 99\nawam-analysis 1\n"},
		{"missing summary header", "awam-scc 1\ncall p(g)\n"},
		{"bad summary block", "awam-scc 1\nawam-analysis 1\ncall p(g)\n"},
		{"bad pattern", "awam-scc 1\nawam-analysis 1\ncall p(((\nsucc bottom\n"},
		{"duplicate call", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ncall p(g)\nsucc bottom\n"},
		{"trace out of range", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace 4 0\n"},
		{"trace negative", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace -1 0\n"},
		{"duplicate trace", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace 0 0\ntrace 0 0\n"},
		{"truncated deps", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace 0 2\ndep q(g)\n"},
		{"bad dep pattern", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace 0 1\ndep )(\n"},
		{"junk after traces", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ntrace 0 0\nwhat is this\n"},
		{"dep without trace", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ndep q(g)\n"},
		{"no trace section", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\n"},
		{"trace leaves out an entry", "awam-scc 1\nawam-analysis 1\ncall p(g)\nsucc bottom\ncall q(g)\nsucc bottom\ntrace 1 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRecord(term.NewTab(), []byte(tc.data))
			if err == nil {
				t.Fatal("malformed record accepted")
			}
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("error does not wrap ErrBadRecord: %v", err)
			}
		})
	}
}

// TestDecodeRecordWrapsBadSummary: summary-block failures surface both
// sentinel errors so callers can branch on either layer.
func TestDecodeRecordWrapsBadSummary(t *testing.T) {
	_, err := DecodeRecord(term.NewTab(), []byte("awam-scc 1\nawam-analysis 1\nsucc bottom\n"))
	if !errors.Is(err, ErrBadRecord) || !errors.Is(err, core.ErrBadSummary) {
		t.Fatalf("want ErrBadRecord wrapping ErrBadSummary, got: %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "succ before call") {
		t.Fatalf("lost the underlying diagnosis: %v", err)
	}
}
