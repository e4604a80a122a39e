package compiler_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/fuzz"
	"awam/internal/parser"
	"awam/internal/term"
)

// presizeCorpus returns the programs TestCodePresized compiles: every
// benchmark program, two seeded wide programs, and the fuzz seed corpus
// (generator seeds and raw sources) checked in under internal/fuzz.
func presizeCorpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, p := range bench.AllPrograms() {
		srcs[p.Name] = p.Source
	}
	for _, n := range []int{32, 512} {
		srcs[fmt.Sprintf("wide_%d_seed1", n)] = bench.WideProgramSeeded(n, 1).Source
	}
	corpus := filepath.Join("..", "fuzz", "testdata", "fuzz")
	seeds, err := filepath.Glob(filepath.Join(corpus, "FuzzSoundness", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("fuzz generator seeds missing: %v", err)
	}
	for _, path := range seeds {
		lines := corpusLines(t, path)
		seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srcs["fuzz/"+filepath.Base(path)] = fuzz.Generate(seed, fuzz.DefaultGenConfig()).Source
	}
	raw, err := filepath.Glob(filepath.Join(corpus, "FuzzSoundnessSource", "*"))
	if err != nil || len(raw) == 0 {
		t.Fatalf("fuzz source corpus missing: %v", err)
	}
	for _, path := range raw {
		lines := corpusLines(t, path)
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srcs["fuzz/"+filepath.Base(path)] = src
	}
	return srcs
}

func corpusLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	return lines
}

// TestCodePresized pins the code array's single allocation: compiling
// never regrows Module.Code past the capacity the bound reserved, and
// the bound is at most twice the final length.
func TestCodePresized(t *testing.T) {
	for name, src := range presizeCorpus(t) {
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		bound, err := compiler.CodeBound(tab, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if cap(mod.Code) != bound {
			t.Errorf("%s: code array regrew: cap %d, bound %d, len %d", name, cap(mod.Code), bound, len(mod.Code))
		}
		if bound > 2*len(mod.Code) {
			t.Errorf("%s: bound %d is more than twice the code length %d", name, bound, len(mod.Code))
		}
	}
}
