package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"awam/internal/bench"
)

// FuzzSoundness drives the differential oracle from a generator seed.
// Every input is a valid, terminating program by construction, so any
// oracle error here is a generator bug and any violation a real
// soundness or determinism defect.
func FuzzSoundness(f *testing.F) {
	for i := int64(0); i < 16; i++ {
		f.Add(baseSeed + i)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Generate(seed, DefaultGenConfig())
		opt := DefaultOptions()
		v, _, err := Check(c, opt)
		if err != nil {
			t.Fatalf("generator produced an invalid program (seed %d): %v\nsource:\n%s", seed, err, c.Source)
		}
		if v != nil {
			reportViolation(t, c, v, opt)
		}
		if v, err := CheckMetamorphic(c, opt); err == nil && v != nil {
			reportViolation(t, c, v, opt)
		}
	})
}

// maxFuzzSource caps program size for the raw-source harness; all
// bench seed programs fit under it (pinned by a test).
const maxFuzzSource = 1 << 12

// FuzzSoundnessSource feeds raw (source, query) pairs to the oracle —
// the corpus starts from the paper's Table 1 programs and mutates from
// there. Unparsable or uncompilable inputs are skipped; inputs that
// parse must satisfy the soundness oracle. With FUZZ_BACKWARD set, each
// input additionally runs the forward/backward consistency oracle
// (CheckBackward) — opt-in because it analyzes forward once per visited
// predicate, a multiple of the base oracle's cost per exec.
func FuzzSoundnessSource(f *testing.F) {
	checkBackward := os.Getenv("FUZZ_BACKWARD") != ""
	for _, p := range bench.AllPrograms() {
		if p.Query != "" {
			f.Add(p.Source, p.Query)
		}
	}
	f.Fuzz(func(t *testing.T, src, query string) {
		// The caps bound single-exec latency: the Go fuzzer has no
		// per-input timeout, so a 64 KB program analyzed under both
		// strategies would stall a fuzz worker for seconds per exec.
		if len(src) > maxFuzzSource || len(query) > 1<<10 {
			t.Skip("oversized input")
		}
		c := Case{Source: src, Queries: []string{query}}
		opt := DefaultOptions()
		opt.MaxSolutions = 4
		opt.ConcreteSteps = 50_000
		opt.AbstractSteps = 200_000
		// StrictCross stays on (the DefaultOptions value): with the
		// widening restructured into an upper closure, byte-identical
		// results across schedules are a theorem for arbitrary
		// programs, not a property of the curated corpus.
		v, _, err := Check(c, opt)
		if err != nil {
			t.Skip("input does not parse or compile")
		}
		if v != nil {
			reportViolation(t, c, v, opt)
		}
		if checkBackward {
			if bv, _, err := CheckBackward(c, opt); err == nil && bv != nil {
				reportViolation(t, c, bv, opt)
			}
		}
	})
}

// TestWriteSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when FUZZ_WRITE_CORPUS is set; otherwise it verifies
// the corpus directories are present (CI runs the fuzz smoke against
// them).
func TestWriteSeedCorpus(t *testing.T) {
	writeCorpus := os.Getenv("FUZZ_WRITE_CORPUS") != ""
	soundDir := filepath.Join("testdata", "fuzz", "FuzzSoundness")
	srcDir := filepath.Join("testdata", "fuzz", "FuzzSoundnessSource")
	if !writeCorpus {
		for _, dir := range []string{soundDir, srcDir} {
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) == 0 {
				t.Fatalf("seed corpus missing under %s (run with FUZZ_WRITE_CORPUS=1 to regenerate): %v", dir, err)
			}
		}
		return
	}
	for _, dir := range []string{soundDir, srcDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Generator seeds: the first 16 property-suite seeds.
	for i := int64(0); i < 16; i++ {
		body := fmt.Sprintf("go test fuzz v1\nint64(%d)\n", baseSeed+i)
		name := filepath.Join(soundDir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Table 1 (and extended) benchmark programs with their queries.
	for _, p := range bench.AllPrograms() {
		if p.Query == "" {
			continue
		}
		body := fmt.Sprintf("go test fuzz v1\nstring(%s)\nstring(%s)\n",
			strconv.Quote(p.Source), strconv.Quote(p.Query))
		name := filepath.Join(srcDir, "bench-"+p.Name)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
