package harness

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// sleepLeg records its name on every run and sleeps past the quick
// floor, so every sample is exactly one run.
func sleepLeg(name string, order *[]string) Leg {
	return Leg{Name: name, Run: func() error {
		*order = append(*order, name)
		time.Sleep(quickFloor)
		return nil
	}}
}

// TestSampleABBA: one untimed warm-up run per leg, then passes that
// alternate between the leg order and its reverse, N samples per leg.
func TestSampleABBA(t *testing.T) {
	var order []string
	stats, err := Sample(true, sleepLeg("A", &order), sleepLeg("B", &order), sleepLeg("C", &order))
	if err != nil {
		t.Fatal(err)
	}
	want := "ABC" // warm-up
	for pass := 0; pass < quickSamples; pass++ {
		if pass%2 == 0 {
			want += "ABC"
		} else {
			want += "CBA"
		}
	}
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("run order %s, want %s", got, want)
	}
	if !strings.HasPrefix(want, "ABCABCCBA") {
		t.Fatalf("plan %s does not start warm-up, forward, reverse", want)
	}
	for i, s := range stats {
		if len(s.ns) != quickSamples {
			t.Errorf("leg %d: %d samples, want %d", i, len(s.ns), quickSamples)
		}
		if s.NsPerOp.Q1 < float64(quickFloor) || s.NsPerOp.Median < s.NsPerOp.Q1 || s.NsPerOp.Q3 < s.NsPerOp.Median {
			t.Errorf("leg %d: summary %+v below the floor or out of order", i, s.NsPerOp)
		}
	}
}

// TestSampleSetupUntimed: a leg's setup runs before each of its runs,
// and its allocations stay out of the leg's bytes/op.
func TestSampleSetupUntimed(t *testing.T) {
	var order []string
	var sink []byte
	leg := Leg{
		Name: "edit",
		Setup: func() error {
			order = append(order, "s")
			sink = make([]byte, 8<<20)
			return nil
		},
		Run: func() error {
			order = append(order, "r")
			time.Sleep(quickFloor)
			return nil
		},
	}
	stats, err := Sample(true, leg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ""), strings.Repeat("sr", 1+quickSamples); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if stats[0].BytesPerOp >= 1<<20 {
		t.Fatalf("setup allocations counted: %d bytes/op", stats[0].BytesPerOp)
	}
	_ = sink
}

// TestSampleStopsOnError: a leg's error ends the run at once and is
// returned, naming the leg.
func TestSampleStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var order []string
	calls := 0
	bad := Leg{Name: "B", Run: func() error {
		order = append(order, "B")
		if calls++; calls == 3 {
			return boom
		}
		time.Sleep(quickFloor)
		return nil
	}}
	_, err := Sample(true, sleepLeg("A", &order), bad)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "B") {
		t.Fatalf("err = %v, want boom from leg B", err)
	}
	// Warm-up A B, pass 0 A B, pass 1 B (fails).
	if got := strings.Join(order, ""); got != "ABABB" {
		t.Fatalf("runs %s, want ABABB", got)
	}
}

// TestSummarize: median and quartiles interpolate linearly between
// order statistics.
func TestSummarize(t *testing.T) {
	cases := []struct {
		xs   []float64
		want Dist
	}{
		{[]float64{7}, Dist{Median: 7, Q1: 7, Q3: 7}},
		{[]float64{5, 1, 3}, Dist{Median: 3, Q1: 2, Q3: 4}},
		{[]float64{4, 1, 3, 2}, Dist{Median: 2.5, Q1: 1.75, Q3: 3.25}},
		{[]float64{9, 1, 8, 2, 7}, Dist{Median: 7, Q1: 2, Q3: 8}},
		{[]float64{10, 40, 20, 30, 60, 50}, Dist{Median: 35, Q1: 22.5, Q3: 47.5}},
	}
	for _, c := range cases {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
	if got := ratio(Stat{ns: []float64{4, 9, 30}}, Stat{ns: []float64{2, 3, 5}}); got != (Dist{Median: 3, Q1: 2.5, Q3: 4.5}) {
		t.Errorf("paired ratio = %+v", got)
	}
}
