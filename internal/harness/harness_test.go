package harness

import (
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
)

// quickOpts keeps harness tests fast: the -quick sample plan.
func quickOpts() MeasureOptions {
	opts := DefaultMeasureOptions()
	opts.Quick = true
	return opts
}

func TestMeasureOneBenchmark(t *testing.T) {
	p, _ := bench.ByName("tak")
	m, err := Measure(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if m.Args != 4 || m.Preds != 2 {
		t.Fatalf("profile = Args %d Preds %d", m.Args, m.Preds)
	}
	if m.Size == 0 || m.Exec == 0 || m.Ours.NsPerOp.Median <= 0 || m.Hosted.NsPerOp.Median <= 0 {
		t.Fatalf("metrics incomplete: %+v", m)
	}
	if m.SpeedupHosted.Median <= 1 {
		t.Fatalf("compiled analysis should beat the hosted analyzer on tak, got %.2fx", m.SpeedupHosted.Median)
	}
}

func TestMeasureSkipsBaselines(t *testing.T) {
	p, _ := bench.ByName("nreverse")
	opts := quickOpts()
	opts.SkipHosted = true
	opts.SkipMetaGo = true
	m, err := Measure(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hosted.NsPerOp.Median != 0 || m.MetaGo.NsPerOp.Median != 0 {
		t.Fatalf("skipped baselines should be zero: %+v", m)
	}
}

func TestTable1Renders(t *testing.T) {
	p, _ := bench.ByName("qsort")
	m, err := Measure(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteTable1(&b, []*Metrics{m})
	out := b.String()
	if !strings.Contains(out, "qsort") || !strings.Contains(out, "Speed-Up") ||
		!strings.Contains(out, "average") {
		t.Fatalf("table 1 incomplete:\n%s", out)
	}
}

func TestTable2Renders(t *testing.T) {
	p, _ := bench.ByName("tak")
	m, err := Measure(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := []*Metrics{m}
	configs, err := MeasureConfigs(quickOpts(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) < 5 {
		t.Fatalf("expected the full configuration sweep, got %d columns", len(configs))
	}
	var b strings.Builder
	WriteTable2(&b, rows, configs)
	out := b.String()
	for _, want := range []string{"k=4", "k=2", "k=8", "no-index", "meta-Go", "average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationRenders(t *testing.T) {
	rows, err := MeasureAblation(quickOpts(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(bench.Programs) {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	var b strings.Builder
	WriteAblation(&b, rows)
	if !strings.Contains(b.String(), "ground%") {
		t.Fatal("ablation header missing")
	}
	// Precision must not decrease with deeper k on any benchmark.
	byName := make(map[string]map[int]AblationRow)
	for _, r := range rows {
		if byName[r.Name] == nil {
			byName[r.Name] = make(map[int]AblationRow)
		}
		byName[r.Name][r.Depth] = r
	}
	for name, m := range byName {
		if m[4].GroundPct+1e-9 < m[2].GroundPct {
			t.Errorf("%s: ground%% fell from k=2 (%.2f) to k=4 (%.2f)",
				name, m[2].GroundPct, m[4].GroundPct)
		}
	}
}

func TestSummaryLine(t *testing.T) {
	p, _ := bench.ByName("tak")
	m, err := Measure(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(SummaryLine([]*Metrics{m}), "tak=") {
		t.Fatal("summary line malformed")
	}
}

// TestSeededWideProgramAnalyzes checks that a randomized wide workload
// (benchtab -dump-wide -seed) still compiles and reaches a fixpoint
// with non-empty schedule-invariant counters.
func TestSeededWideProgramAnalyzes(t *testing.T) {
	p := bench.WideProgramSeeded(8, 42)
	mod, err := compileBench(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewWith(mod, worklistConfig()).AnalyzeMain()
	if err != nil {
		t.Fatal(err)
	}
	if res.TableSize == 0 || res.Steps == 0 {
		t.Fatalf("seeded wide program produced empty counters: table %d, steps %d", res.TableSize, res.Steps)
	}
}
