package awam

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"awam/internal/bench"
)

// summaryLines renders Summary of every analyzed predicate of p as one
// JSON line each, in Predicates order.
func summaryLines(t *testing.T, src string) []string {
	t.Helper()
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pred := range a.Predicates() {
		s, ok := a.Summary(pred)
		if !ok {
			t.Fatalf("Summary(%q) not found", pred)
		}
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(js))
	}
	return out
}

// TestSummaryGolden pins Summary — modes, types, aliasing and
// determinacy — for every predicate of the Table 1 suite (one
// "program<TAB>json" line each in testdata/summaries.golden) and, as a
// digest over the same JSON lines, of wide_32. The values were recorded
// from the earlier per-call implementation, which rescanned the whole
// table on every call; the indexed one must reproduce them exactly.
func TestSummaryGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/summaries.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range bench.Programs {
		for _, line := range summaryLines(t, p.Source) {
			got = append(got, p.Name+"\t"+line)
		}
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d summary lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("summary line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}

	const wide32Lines, wide32Digest = 225, "e345660b3f7d83dd506bce7855cb917dbd0e68d59110e89bf883e34f66ea2091"
	lines := summaryLines(t, bench.WideProgram(32).Source)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	if len(lines) != wide32Lines || hex.EncodeToString(sum[:]) != wide32Digest {
		t.Fatalf("wide_32 summaries: %d lines, digest %x; want %d lines, digest %s",
			len(lines), sum, wide32Lines, wide32Digest)
	}
}

// TestSummaryConcurrent calls Summary and Determinacy on one Analysis
// from several goroutines — the daemon's access pattern — and requires
// the sequential answers. Run under -race it also proves the shared
// determinacy computation is synchronized.
func TestSummaryConcurrent(t *testing.T) {
	src := bench.WideProgram(8).Source
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	preds := ref.Predicates()
	want := make(map[string]Summary, len(preds))
	for _, p := range preds {
		want[p], _ = ref.Summary(p)
	}
	wantDet := ref.Determinacy()

	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range preds {
				p := preds[(i+g*len(preds)/4)%len(preds)]
				if got, ok := a.Summary(p); !ok || !reflect.DeepEqual(got, want[p]) {
					t.Errorf("concurrent Summary(%q) = %+v, want %+v", p, got, want[p])
					return
				}
			}
			if got := a.Determinacy(); got != wantDet {
				t.Error("concurrent Determinacy differs from the sequential report")
			}
		}(g)
	}
	wg.Wait()
}

// TestSummarySize: the size a stored summary is charged counts the
// struct and every string and slice it holds.
func TestSummarySize(t *testing.T) {
	empty := Summary{}.size()
	s := Summary{
		Pred:       "app/3",
		Call:       "app(list(g), list(g), var)",
		Success:    "app(list(g), list(g), list(g))",
		Args:       make([]ArgSummary, 3),
		AliasPairs: [][2]int{{1, 3}},
	}
	want := empty + int64(len(s.Pred)+len(s.Call)+len(s.Success)) + 3*int64(reflect.TypeOf(ArgSummary{}).Size()) + 16
	if got := s.size(); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
}
