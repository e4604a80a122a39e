package main

import (
	"math"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestQuickSmoke makes a quick traced run of every workload: each op
// must match its reference, every metric BENCHMARK.json names must be
// emitted with its unit, spans must nest, and each op's child spans must
// cover at least 95% of its wall time.
func TestQuickSmoke(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i])
		}
	}
	if len(spec.PerLayer) != len(reportedLayers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the result line %d", len(spec.PerLayer), len(reportedLayers))
	}

	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := runWorkload(runOpts{workload: w, seed: 1, seconds: 1, trace: true, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Metrics["error_rate"].Value != 0 || !rep.Correct {
				t.Fatalf("failed %d of %d ops: %s", rep.Failed, rep.Attempted, rep.FirstError)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			res := rep.result()
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for name, m := range rep.Layers {
				if m.Unit == "" {
					t.Errorf("layer metric %s has no unit", name)
				}
			}
			checkSpans(t, rep.Spans)
		})
	}
}

func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span %+v: duplicate or zero ID", s)
		}
		byID[s.ID] = s
	}
	children := make(map[int]float64)
	ops := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			if s.Name != "op" && s.Name != "probe" {
				t.Errorf("root span %s is neither an op nor a probe", s.Name)
			}
			ops++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s: parent %d not recorded", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("span %s [%v, %v] op %d does not nest in %s [%v, %v] op %d",
				s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
		children[s.Parent] += float64(s.dur())
	}
	if ops == 0 {
		t.Fatal("no op spans recorded")
	}
	for _, s := range spans {
		if s.Name == "op" && s.dur() > 0 {
			if cov := children[s.ID] / float64(s.dur()); cov < 0.95 {
				t.Errorf("op %d: child spans cover %.1f%% of its wall time", s.Op, 100*cov)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		head        []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{100, 99, 101, 100, 101}, true, "same"},
		{[]float64{120, 121, 119, 122, 118}, true, "worse"},
		{[]float64{80, 81, 79, 82, 78}, true, "better"},
		{[]float64{80, 81, 79, 82, 78}, false, "worse"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if got, _ := verdict(base, c.head, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, lowerBetter=%t) = %s, want %s", c.head, c.lowerBetter, got, c.want)
		}
	}
}
