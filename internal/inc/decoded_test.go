package inc

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"awam/internal/bench"
	"awam/internal/cache"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// engineRun analyzes src through e on a freshly compiled module, as the
// daemon does per request.
func engineRun(t *testing.T, e *Engine, src string) *Result {
	t.Helper()
	_, mod := mustCompile(t, src)
	res, err := e.AnalyzeAll(context.Background(), mod, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (c *recordCache) decoded() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decodes
}

// TestDecodedRecordsReused: a second warm analysis decodes no record
// again; a record whose bytes changed is decoded again, and a malformed
// one is a miss; every run is byte-identical to the cold one.
func TestDecodedRecordsReused(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	e := NewEngine(nil)
	cold := engineRun(t, e, src)
	want := cold.Marshal()
	n := int64(len(cold.Plan.SCCs))

	check := func(label string, warmSCCs int, decodes int64) *Result {
		t.Helper()
		res := engineRun(t, e, src)
		if res.Marshal() != want {
			t.Fatalf("%s: result differs from the cold run", label)
		}
		if res.WarmSCCs != warmSCCs || e.recs.decoded() != decodes {
			t.Fatalf("%s: %d warm components, %d records decoded; want %d and %d",
				label, res.WarmSCCs, e.recs.decoded(), warmSCCs, decodes)
		}
		return res
	}
	check("first warm run", int(n), n)
	res := check("second warm run", int(n), n)

	// Same record, different bytes: a trailing blank line decodes to the
	// same entries.
	fp := cache.Fingerprint(res.Plan.Fingerprints[0])
	data, _ := e.store.Get(fp)
	e.store.Put(fp, append(append([]byte(nil), data...), '\n'))
	check("changed record", int(n), n+1)
	check("after the change", int(n), n+1)

	// A malformed record is a miss (its callers' cones with it) and is
	// rewritten by the run.
	e.store.Put(fp, []byte("awam-scc 1\ngarbage\n"))
	if res := engineRun(t, e, src); res.Marshal() != want || res.WarmSCCs == int(n) {
		t.Fatalf("malformed record: %d/%d warm components", res.WarmSCCs, n)
	}
	check("after the rewrite", int(n), n+2)
}

// TestConcurrentWarmAnalyses runs warm and one-edit analyses of one
// program concurrently through one engine (go test -race), each on its
// own symbol table, one of them numbered otherwise, so that they start
// from, replace and drop the snapshot and its text memo under each
// other: once with every record cached, and once with a budget so small
// that loads keep dropping the cache and its symbol table too.
func TestConcurrentWarmAnalyses(t *testing.T) {
	base := bench.WideProgramSeeded(8, 1).Source
	srcs := []string{base}
	for i := 0; i < 3; i++ {
		srcs = append(srcs, base+fmt.Sprintf("p%d_use(mutant_%d).\n", i, i))
	}
	srcs = append(srcs, "top(new).\n"+base) // renumbered: fits no other's snapshot
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = engineRun(t, NewEngine(nil), src).Marshal()
	}
	for _, budget := range []int64{cache.DefaultBudget, 4 << 10} {
		e := NewEngine(nil)
		e.recs.budget = budget
		engineRun(t, e, base)
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					i := (g + k) % len(srcs)
					_, mod := mustCompile(t, srcs[i])
					res, err := e.AnalyzeAll(context.Background(), mod, core.DefaultConfig())
					if err != nil {
						errs <- err.Error()
						return
					}
					if res.Marshal() != want[i] {
						errs <- fmt.Sprintf("budget %d, source %d: result differs from a scratch engine's", budget, i)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
	}
}

// TestInternMappedOnRecords: interning a record decoded into another
// symbol table through the atom map gives the IDs, hit flags and
// canonical patterns that interning the same record decoded into the
// analysis' own table gives.
func TestInternMappedOnRecords(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	e := NewEngine(nil)
	res := engineRun(t, e, src)
	private := term.NewTab()
	for i := 0; i < 50; i++ {
		private.Intern(fmt.Sprintf("other_%d", i)) // numbering unlike the request's
	}
	tab, _ := mustCompile(t, src)
	m := &atomMap{from: private, to: tab}
	mapped, direct := domain.NewInterner(), domain.NewInterner()
	seen := 0
	for _, fp := range res.Plan.Fingerprints {
		data, ok := e.store.Get(cache.Fingerprint(fp))
		if !ok {
			continue
		}
		pe, err := DecodeRecord(private, data)
		if err != nil {
			t.Fatal(err)
		}
		re, err := DecodeRecord(tab, data)
		if err != nil {
			t.Fatal(err)
		}
		m.cover(newDecoded(private, data, pe).atoms)
		for k := range pe {
			ps := append([]*domain.Pattern{pe[k].CP, pe[k].Succ}, pe[k].Deps...)
			rs := append([]*domain.Pattern{re[k].CP, re[k].Succ}, re[k].Deps...)
			for j := range ps {
				if ps[j] == nil {
					continue
				}
				id1, hit1 := mapped.InternMapped(ps[j], m.atoms)
				id2, hit2 := direct.Intern(rs[j])
				if id1 != id2 || hit1 != hit2 {
					t.Fatalf("%s: mapped (%d, %t), direct (%d, %t)",
						domain.PatternText(tab, rs[j]), id1, hit1, id2, hit2)
				}
				if got, want := domain.PatternText(tab, mapped.Pattern(id1)), domain.PatternText(tab, rs[j]); got != want {
					t.Fatalf("mapped rep %s, want %s", got, want)
				}
				if id, hit := mapped.Intern(rs[j]); id != id1 || !hit {
					t.Fatalf("%s: Intern after InternMapped gives (%d, %t), want (%d, true)",
						domain.PatternText(tab, rs[j]), id, hit, id1)
				}
				seen++
			}
		}
	}
	if seen == 0 {
		t.Fatal("no record patterns compared")
	}
}

// compileOn compiles src onto tab, as a derived program shares its
// base's symbol table.
func compileOn(t *testing.T, tab *term.Tab, src string) *wam.Module {
	t.Helper()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestInternerSnapshot: an analysis over the symbol table of the last
// one starts from a clone of its interner and takes the records it
// serves again with the same bytes from the snapshot, without interning
// them; its result equals a fresh engine's. An analysis over another
// table starts empty, and a snapshot over the budget is not kept.
func TestInternerSnapshot(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	edited := src + "p3_use(mutant_1).\n"
	want := engineRun(t, NewEngine(nil), edited).Marshal()

	e := NewEngine(nil)
	tab := term.NewTab()
	run := func(mod *wam.Module) *Result {
		res, err := e.AnalyzeAll(context.Background(), mod, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(compileOn(t, tab, src))
	run(compileOn(t, tab, src)) // warm: every record served
	first := e.recs.snap
	if first == nil || first.tab != tab || len(first.comps) == 0 {
		t.Fatal("no snapshot of the warm run")
	}
	res := run(compileOn(t, tab, edited))
	if res.Marshal() != want {
		t.Fatal("analysis from the snapshot differs from a fresh engine's")
	}
	second := e.recs.snap
	kept, clean := 0, 0
	for _, fp := range res.Plan.Fingerprints {
		c := first.comps[cache.Fingerprint(fp)]
		if c == nil {
			continue
		}
		clean++
		if second.comps[cache.Fingerprint(fp)] == c {
			kept++
		}
	}
	if clean == 0 || kept != clean {
		t.Fatalf("%d of %d clean served records taken from the snapshot, want all", kept, clean)
	}
	if in, _, _ := e.recs.start(term.NewTab()); in != nil || e.recs.snap != nil {
		t.Fatal("an analysis over another table started from the snapshot, or kept it")
	}

	small := NewEngine(nil)
	small.recs.budget = 1
	_, mod := mustCompile(t, src)
	if _, err := small.AnalyzeAll(context.Background(), mod, core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if small.recs.snap != nil {
		t.Fatal("a snapshot over the budget was kept")
	}
}

// TestStoredSummaryCharges: a stored summary is charged its value's
// size and its pattern slice to the budget, is found only under the
// fingerprint and entries it was kept with, and replaces what its
// predicate had stored under another fingerprint; one over the budget
// drops the stored summaries, and so does dropping the snapshot they
// belong to.
func TestStoredSummaryCharges(t *testing.T) {
	e := NewEngine(nil)
	res := engineRun(t, e, bench.WideProgramSeeded(8, 1).Source)
	fns, groups := res.Grouped()
	fn, ents := fns[0], groups[0]
	c := e.recs
	bytes := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.bytes
	}

	before := bytes()
	res.KeepSummary(fn, ents, "summary", 1000)
	pats := entryPatterns(ents)
	want := int64(storedBytes+1000) + 8*int64(len(pats))
	if got := bytes() - before; got != want {
		t.Fatalf("stored summary charged %d bytes, want %d", got, want)
	}
	if v, ok := res.StoredSummary(fn, ents); !ok || v != "summary" {
		t.Fatalf("stored summary not found: %v %t", v, ok)
	}
	if _, ok := res.StoredSummary(fn, ents[:len(ents)-1]); ok {
		t.Fatal("stored summary found for other entries")
	}

	fp, _ := res.fingerprint(fn)
	c.keepSummary(res.Tab, fp+"x", fn, pats, "other", 10)
	if _, ok := res.StoredSummary(fn, ents); ok {
		t.Fatal("summary under the old fingerprint still found after a new one was stored")
	}
	if got, want := bytes()-before, want-1000+10; got != want || len(c.sums) != 1 {
		t.Fatalf("after replacement: %d bytes charged over %d summaries, want %d over 1", got, len(c.sums), want)
	}

	budget := c.budget
	c.budget = bytes() + 100
	res.KeepSummary(fns[1], groups[1], "large", 1000)
	if c.sums != nil || bytes() != before {
		t.Fatalf("a summary over the budget left %d summaries and %d bytes charged", len(c.sums), bytes()-before)
	}
	c.budget = budget

	res.KeepSummary(fn, ents, "summary", 1000)
	c.start(term.NewTab())
	if c.sums != nil || c.snap != nil || bytes() != 0 {
		t.Fatalf("an analysis over another table left %d summaries and %d bytes charged", len(c.sums), bytes())
	}
	if _, ok := res.StoredSummary(fn, ents); ok {
		t.Fatal("stored summary found after its snapshot was dropped")
	}
}

// interns returns how many served records analyses have interned.
func (c *recordCache) interns() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.interned
}

// TestFreshLoadsThroughOneStore runs random edit sequences over wide_32
// and wide_128 through one engine, each version loaded afresh onto its
// own symbol table, as a batch client does, and checks every step
// against a cold analysis. Some edits insert a new atom at the top of
// the source or in the middle, or move a rule to the top, which
// renumbers atoms: the snapshot must not fit then (after a top atom,
// every served record is interned again), or the warm entries and the
// texts of its nodes would be read under other names. After each step the same source is loaded twice more, each
// time onto another fresh table; those loads fit the snapshot, the
// second interns no served record, and they find the summary the step
// kept.
func TestFreshLoadsThroughOneStore(t *testing.T) {
	for _, tc := range []struct {
		families, steps int
	}{{32, 12}, {128, 4}} {
		t.Run(fmt.Sprintf("wide_%d", tc.families), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.families)))
			src := bench.WideProgramSeeded(tc.families, 1).Source
			e := NewEngine(nil)
			run := func(label, src string) *Result {
				t.Helper()
				res := engineRun(t, e, src)
				_, cold := analyzeCold(t, src)
				if res.Marshal() != cold.Marshal() {
					t.Fatalf("%s: result differs from a cold analysis", label)
				}
				return res
			}
			run("base", src)
			renumbered := 0
			for step := 0; step < tc.steps; step++ {
				edited, kind := freshEdit(r, src, step)
				src = edited
				before := e.recs.interns()
				res := run(kind, src)
				interned := e.recs.interns() - before
				if kind == "top atom" {
					renumbered++
					if res.WarmSCCs == 0 || interned != int64(res.WarmSCCs) {
						t.Fatalf("%s: %d of %d served records interned, want all: the snapshot fit a renumbered table",
							kind, interned, res.WarmSCCs)
					}
				}
				fns, groups := res.Grouped()
				res.KeepSummary(fns[0], groups[0], "kept", 1)

				// The records the step wrote and the records it served
				// are both in the snapshot now, so none is interned again.
				var again *Result
				for _, label := range []string{", loaded again", ", loaded a third time"} {
					before = e.recs.interns()
					again = run(kind+label, src)
					if n := e.recs.interns() - before; n != 0 || again.WarmSCCs == 0 {
						t.Fatalf("%s%s: %d of %d served records interned, want none", kind, label, n, again.WarmSCCs)
					}
				}
				fns, groups = again.Grouped()
				if v, ok := again.StoredSummary(fns[0], groups[0]); !ok || v != "kept" {
					t.Fatalf("%s, loaded again: the summary kept over the last table is not found", kind)
				}
			}
			if renumbered == 0 {
				t.Fatal("no edit renumbered the atoms")
			}
		})
	}
}

// analyzeCold is a storeless worklist analysis of src.
func analyzeCold(t *testing.T, src string) (*term.Tab, *core.Result) {
	t.Helper()
	tab, mod := mustCompile(t, src)
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyWorklist
	res, err := core.NewWith(mod, cfg).AnalyzeAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tab, res
}

// freshEdit returns a random one-clause edit of src, a wide program with
// one clause per line, and its kind. Every third step, from the second
// on, inserts a fact naming new atoms at the top of the source.
func freshEdit(r *rand.Rand, src string, step int) (string, string) {
	lines := strings.SplitAfter(src, "\n")
	at := r.Intn(len(lines) + 1)
	insert := func(s string) string {
		return strings.Join(lines[:at], "") + s + strings.Join(lines[at:], "")
	}
	if step%3 == 1 {
		return fmt.Sprintf("top%d(new%d).\n", step, step) + src, "top atom"
	}
	for {
		i := r.Intn(len(lines))
		line := strings.TrimSpace(lines[i])
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "main") || r.Intn(6) == 0 {
			if !strings.Contains(line, ":-") {
				continue
			}
			// Another first appearance order: the same names, numbered
			// otherwise.
			return lines[i] + strings.Join(lines[:i], "") + strings.Join(lines[i+1:], ""), "rule first"
		}
		switch r.Intn(5) {
		case 0:
			return strings.Join(lines[:i], "") + strings.Join(lines[i+1:], ""), "delete"
		case 1:
			return insert(lines[i]), "duplicate"
		case 2:
			if j := strings.Index(line, ":-"); j > 0 {
				lines[i] = line[:len(line)-1] + fmt.Sprintf(", atom(chg%d).\n", step)
				return strings.Join(lines, ""), "middle atom"
			}
		case 3:
			return src + fmt.Sprintf("p%d_use(mutant_%d).\n", r.Intn(8), step), "neutral"
		default:
			return insert(fmt.Sprintf("fact%d(atom%d).\n", step%3, step)), "add fact"
		}
	}
}

// size counts the texts the memo keeps.
func (m *textMemo) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.texts)
}

// TestTextMemo: the snapshot's text memo is filled by serializations,
// not by the analysis; a fitting fresh load's Marshal renders no text
// the memo keeps; the texts are charged to the budget while the memo is
// the snapshot's, and dropped with it, after which it keeps nothing.
func TestTextMemo(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	e := NewEngine(nil)
	c := e.recs
	res := engineRun(t, e, src)
	m := c.snap.texts
	if res.Texts != m || m.size() != 0 {
		t.Fatalf("the analysis rendered %d texts before any serialization", m.size())
	}
	want := res.Marshal()
	n := m.size()
	if n == 0 {
		t.Fatal("Marshal kept no text")
	}
	var cost int64
	for _, s := range m.texts {
		cost += textBytes + int64(len(s))
	}
	if m.bytes != cost {
		t.Fatalf("texts charged %d bytes, want %d", m.bytes, cost)
	}

	again := engineRun(t, e, src) // a fresh table with the same names
	if again.Texts != m || again.Marshal() != want || m.size() != n {
		t.Fatalf("a fitting fresh load rendered %d texts again", m.size()-n)
	}
	edited := engineRun(t, e, src+"p3_use(mutant_1).\n")
	if edited.Texts != m || edited.Marshal() != want || m.size() != n {
		t.Fatalf("a neutral edit kept %d more texts, want none: its patterns are the base's", m.size()-n)
	}

	c.mu.Lock()
	charged, snap := c.bytes, c.snap.cost
	c.mu.Unlock()
	c.start(term.NewTab())
	c.mu.Lock()
	after := c.bytes
	c.mu.Unlock()
	if charged-after != snap+m.bytes {
		t.Fatalf("dropping the snapshot freed %d bytes, want %d", charged-after, snap+m.bytes)
	}
	m.Keep(map[*domain.Pattern]string{{}: "p"}, 1)
	if m.size() != n {
		t.Fatal("a dropped memo kept a text")
	}
}
