package awam

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"awam/internal/bench"
)

// fpDigest condenses a plan's fingerprint list into one comparable
// value: the sha256 of the fingerprints joined by newlines.
func fpDigest(fps []string) string {
	sum := sha256.Sum256([]byte(strings.Join(fps, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestCacheAddressesStable pins the addresses under which summaries are
// stored, for the Table 1 suite and wide_64 (seed 1): the specializer
// salt (Program.Salt), every forward component fingerprint under the
// default specialized and generic configurations, and every backward
// demand fingerprint. The golden values were recorded before the
// condensation was shared between the specializer and both engines;
// matching them proves that stores primed by older binaries — memory,
// disk and peer tiers alike — stay warm without a fingerprint format
// bump.
func TestCacheAddressesStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/cache_addresses.golden")
	if err != nil {
		t.Fatal(err)
	}
	progs := append(append([]bench.Program(nil), bench.Programs...), bench.WideProgramSeeded(64, 1))
	var b strings.Builder
	for _, p := range progs {
		sys, err := Load(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s salt %s\n", p.Name, sys.specProgram().Salt())
		for _, leg := range []struct {
			name string
			opts []AnalyzeOption
		}{{"fwd", nil}, {"fwd-generic", []AnalyzeOption{WithSpecializedTransfer(false)}}} {
			st, err := NewStore()
			if err != nil {
				t.Fatal(err)
			}
			a, err := sys.Analyze(append(leg.opts, WithSummaryCache(st))...)
			if err != nil {
				t.Fatal(err)
			}
			fps := a.inc.Plan.Fingerprints
			fmt.Fprintf(&b, "%s %s %d %s\n", p.Name, leg.name, len(fps), fpDigest(fps))
		}
		// Every source predicate as a goal: the fingerprinted set is the
		// static callee closure of the cone, which then covers the whole
		// program, so every demand address is compared.
		var opts []BackwardOption
		for _, pred := range sys.Predicates() {
			opts = append(opts, WithGoal(pred))
		}
		bw, err := sys.AnalyzeBackward(opts...)
		if err != nil {
			t.Fatal(err)
		}
		fps := bw.res.Plan.Fingerprints
		for i, fp := range fps {
			if fp == "" {
				t.Fatalf("%s: backward component %d left unfingerprinted", p.Name, i)
			}
		}
		fmt.Fprintf(&b, "%s bwd %d %s\n", p.Name, len(fps), fpDigest(fps))
	}
	got := strings.Split(b.String(), "\n")
	want := strings.Split(string(golden), "\n")
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("cache address line %d:\n got %s\nwant %s", i+1, g, want[i])
		}
	}
}

// TestSharedCondensation: the specializer, the store-backed forward
// engine and the backward engine all read the System's one
// condensation; none of them condenses the module again.
func TestSharedCondensation(t *testing.T) {
	p, _ := bench.ByName("qsort")
	sys, err := Load(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze(WithSummaryCache(st))
	if err != nil {
		t.Fatal(err)
	}
	bw, err := sys.AnalyzeBackward(WithBackwardStore(st))
	if err != nil {
		t.Fatal(err)
	}
	c := sys.condensation()
	if a.inc.Plan.Condensation != c {
		t.Error("store-backed Analyze condensed the module again")
	}
	if bw.res.Plan.Condensation != c {
		t.Error("AnalyzeBackward condensed the module again")
	}
	spec := sys.specProgram()
	if len(spec.Comps) != len(c.SCCs) {
		t.Fatalf("specialized program has %d components, condensation %d", len(spec.Comps), len(c.SCCs))
	}
	for i, cs := range spec.Comps {
		if &cs.Members[0] != &c.SCCs[i].Members[0] {
			t.Fatalf("specialized component %d does not share the condensation's member list", i)
		}
	}
}
