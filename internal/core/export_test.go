package core

import (
	"fmt"

	"awam/internal/domain"
	"awam/internal/term"
	"awam/internal/wam"
)

// ReplayProbe holds a converged naive or worklist fixpoint before its
// finalize pass, so a test can present the same table several ways.
type ReplayProbe struct {
	a        *Analyzer
	entries  []*domain.Pattern
	rec      recorder
	warnings []string
}

// NewReplayProbe runs cfg's fixpoint (naive or worklist) from
// AnalyzeAll's entry set and keeps its exploration records.
func NewReplayProbe(mod *wam.Module, cfg Config) (*ReplayProbe, error) {
	a := NewWith(mod, cfg)
	entries, err := a.prepare(a.allEntries())
	if err != nil {
		return nil, err
	}
	if err := a.fixpoint(entries); err != nil {
		return nil, err
	}
	return &ReplayProbe{a: a, entries: entries, rec: a.rec,
		warnings: append([]string(nil), a.Warnings...)}, nil
}

// reads returns the read items of the calling pattern id's recorded
// exploration (nil when it has none).
func (p *ReplayProbe) reads(id domain.PatternID) []*recItem {
	if int(id) >= len(p.rec.byID) || !p.rec.byID[id].done {
		return nil
	}
	er := p.rec.byID[id]
	var out []*recItem
	for i := er.off; i < er.off+er.n; i++ {
		if p.rec.items[i].n > 0 {
			out = append(out, &p.rec.items[i])
		}
	}
	return out
}

// RecordedReads returns how many callees the recorded exploration of the
// calling pattern id read.
func (p *ReplayProbe) RecordedReads(id domain.PatternID) int { return len(p.reads(id)) }

// Present runs the finalize pass over the converged table. With
// records false every entry runs its clauses; with tamperID non-zero the
// summary recorded at read position tamperRead of that entry's
// exploration is replaced by an ID no summary has, so its replay
// mismatches there.
func (p *ReplayProbe) Present(records bool, tamperID domain.PatternID, tamperRead int) (*Result, error) {
	a := p.a
	a.Warnings = append([]string(nil), p.warnings...)
	a.rec = recorder{}
	if records {
		a.rec = p.rec
	}
	if tamperID != domain.BottomID {
		it := p.reads(tamperID)[tamperRead]
		saved := it.summ
		it.summ = -1
		defer func() { it.summ = saved }()
	}
	return a.present(p.entries, 0)
}

// PassTable is the naive extension table as one pass left it: each
// entry's calling-pattern ID and summary ID, in insertion order.
type PassTable [][2]domain.PatternID

// NaiveRun analyzes from AnalyzeAll's entry set under the naive
// strategy, replaying unchanged explorations from their records or,
// with replay false, running every exploration's clauses. It also
// returns the table after each pass.
func NaiveRun(mod *wam.Module, cfg Config, replay bool) (*Result, []PassTable, error) {
	cfg.Strategy = StrategyNaive
	pt := &passTables{}
	cfg.Tracer = pt
	a := NewWith(mod, cfg)
	a.naiveReplayOff = !replay
	pt.a = a
	res, err := a.AnalyzeAll()
	if err != nil {
		return nil, nil, err
	}
	pt.take()
	return res, pt.passes, nil
}

// passTables is a Tracer that takes the table at each pass boundary.
type passTables struct {
	a      *Analyzer
	passes []PassTable
}

func (p *passTables) Instr(term.Functor, wam.Op)     {}
func (p *passTables) Table(term.Functor, TableEvent) {}
func (p *passTables) Enqueue(term.Functor)           {}

// Iteration fires before pass n starts, when pass n-1 has finished.
func (p *passTables) Iteration(n int) {
	if n > 1 {
		p.take()
	}
}

func (p *passTables) take() {
	var t PassTable
	for _, e := range p.a.table.Entries() {
		t = append(t, [2]domain.PatternID{e.ID, e.succID})
	}
	p.passes = append(p.passes, t)
}

// PathCounts tallies an analysis' abstractions by the path they took.
type PathCounts struct{ Heap, Tree int }

// AnalyzeHeapChecked runs AnalyzeAll over mod under cfg. Every
// abstraction that takes the heap path is also built as a tree by
// abstractArgs and interned, and the first whose two IDs differ is
// returned as an error.
func AnalyzeHeapChecked(mod *wam.Module, cfg Config) (*Result, PathCounts, error) {
	a := NewWith(mod, cfg)
	var n PathCounts
	var bad error
	a.absCheck = func(heap bool, fn term.Functor, argAddrs []int, id domain.PatternID) {
		if !heap {
			n.Tree++
			return
		}
		n.Heap++
		p := a.abstractArgs(fn, argAddrs)
		if want, _ := a.in.Intern(p); want != id && bad == nil {
			bad = fmt.Errorf("heap path gave %s, tree path %s",
				a.in.Pattern(id).String(a.tab), p.String(a.tab))
		}
	}
	res, err := a.AnalyzeAll()
	if err == nil {
		err = bad
	}
	return res, n, err
}
