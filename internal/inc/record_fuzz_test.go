package inc

import (
	"errors"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/term"
)

// FuzzDecodeRecord feeds arbitrary bytes to the summary-record decoder,
// seeded with the records EncodeRecord writes for every component of
// the Table 1 suite. The decoder must never panic and must reject only
// with ErrBadRecord (the engine's cache-miss signal); a record it
// accepts must re-encode to bytes that decode to the same entries,
// because stored records are merged and re-encoded by later runs.
//
//	go test -fuzz '^FuzzDecodeRecord$' -fuzztime 15s ./internal/inc
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range bench.Programs {
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, p.Source)
		if err != nil {
			f.Fatalf("%s: %v", p.Name, err)
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			f.Fatalf("%s: %v", p.Name, err)
		}
		cfg := core.DefaultConfig()
		cfg.Strategy = core.StrategyWorklist
		res, err := core.NewWith(mod, cfg).AnalyzeAll()
		if err != nil {
			f.Fatalf("%s: %v", p.Name, err)
		}
		cond := NewCondensation(mod)
		groups := make([][]*core.Entry, len(cond.SCCs))
		for _, e := range res.Entries {
			if i, ok := cond.PredSCC[e.CP.Fn]; ok {
				groups[i] = append(groups[i], e)
			}
		}
		for _, ents := range groups {
			if len(ents) > 0 {
				f.Add(EncodeRecord(tab, ents))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := term.NewTab()
		got, err := DecodeRecord(tab, data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("rejection does not wrap ErrBadRecord: %v", err)
			}
			return
		}
		ents := make([]*core.Entry, len(got))
		for i, re := range got {
			ents[i] = &core.Entry{CP: re.CP, Succ: re.Succ, Consults: re.Deps}
		}
		again, err := DecodeRecord(tab, EncodeRecord(tab, ents))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\ninput: %q", err, data)
		}
		if len(again) != len(got) {
			t.Fatalf("re-decoded %d entries, first decode %d\ninput: %q", len(again), len(got), data)
		}
		for i := range got {
			if w, g := entryText(tab, got[i]), entryText(tab, again[i]); g != w {
				t.Fatalf("entry %d re-decoded as\n%s\nfirst decode\n%s\ninput: %q", i, g, w, data)
			}
		}
	})
}

// entryText renders a decoded entry in the cross-table pattern text.
func entryText(tab *term.Tab, re RecordEntry) string {
	s := domain.PatternText(tab, re.CP) + " -> "
	if re.Succ == nil {
		s += "bottom"
	} else {
		s += domain.PatternText(tab, re.Succ)
	}
	for _, d := range re.Deps {
		s += " dep " + domain.PatternText(tab, d)
	}
	return s
}
