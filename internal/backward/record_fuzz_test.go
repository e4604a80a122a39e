package backward

import (
	"context"
	"sync"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/domain"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/term"
)

// fuzzProgram is one Table 1 program prepared for the record fuzzer:
// its symbol table, its defined components, and the demand record the
// engine writes for each of them.
type fuzzProgram struct {
	tab     *term.Tab
	sccs    []*inc.SCC
	records [][]byte
}

var (
	fuzzOnce  sync.Once
	fuzzProgs []fuzzProgram
	fuzzErr   error
)

// fuzzCorpus analyzes the Table 1 suite backward once per process.
func fuzzCorpus() ([]fuzzProgram, error) {
	fuzzOnce.Do(func() {
		for _, p := range bench.Programs {
			tab := term.NewTab()
			prog, err := parser.ParseProgram(tab, p.Source)
			if err != nil {
				fuzzErr = err
				return
			}
			mod, exp, err := compiler.CompileExpanded(tab, prog, compiler.DefaultOptions())
			if err != nil {
				fuzzErr = err
				return
			}
			res, err := NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), exp, Config{})
			if err != nil {
				fuzzErr = err
				return
			}
			fp := fuzzProgram{tab: res.Tab}
			for _, idx := range res.Visited {
				scc := res.Plan.SCCs[idx]
				if scc.Undefined {
					continue
				}
				fp.sccs = append(fp.sccs, scc)
				fp.records = append(fp.records, encodeDemands(res.Tab, scc, res.Demands))
			}
			fuzzProgs = append(fuzzProgs, fp)
		}
	})
	return fuzzProgs, fuzzErr
}

// FuzzDecodeDemands feeds arbitrary bytes to the demand-record decoder
// against a component of the Table 1 suite, seeded with the records the
// engine writes for every component. The decoder must never panic, and
// a record it accepts must re-encode to bytes that decode to the same
// patterns (stored records are read back by later runs, so the codec
// has to be a fixed point on everything it lets through).
//
//	go test -fuzz '^FuzzDecodeDemands$' -fuzztime 15s ./internal/backward
func FuzzDecodeDemands(f *testing.F) {
	progs, err := fuzzCorpus()
	if err != nil {
		f.Fatal(err)
	}
	for pi, p := range progs {
		for si, rec := range p.records {
			f.Add(uint8(pi), uint16(si), rec)
		}
	}
	f.Fuzz(func(t *testing.T, pi uint8, si uint16, data []byte) {
		p := progs[int(pi)%len(progs)]
		if len(p.sccs) == 0 {
			return
		}
		scc := p.sccs[int(si)%len(p.sccs)]
		ds, err := decodeDemands(p.tab, scc, data)
		if err != nil {
			return
		}
		demands := make(map[term.Functor]*domain.Pattern, len(scc.Members))
		for i, m := range scc.Members {
			demands[m] = ds[i]
		}
		again, err := decodeDemands(p.tab, scc, encodeDemands(p.tab, scc, demands))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\ninput: %q", err, data)
		}
		for i, m := range scc.Members {
			if got, want := demandText(p.tab, again[i]), demandText(p.tab, ds[i]); got != want {
				t.Fatalf("%s: re-decoded %s, first decode %s\ninput: %q", p.tab.FuncString(m), got, want, data)
			}
		}
	})
}
