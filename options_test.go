package awam

import (
	"errors"
	"testing"
)

// TestOptionValidationExactErrors pins the exact error text of every
// option-validation failure, on top of the errors.Is sentinel checks in
// TestTypedErrors: callers log these messages, so they are part of the
// API surface.
func TestOptionValidationExactErrors(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  AnalyzeOption
		want string
	}{
		{"negative depth", WithDepth(-1), "awam: invalid analysis option: negative depth -1"},
		{"unknown strategy", WithStrategy(Strategy(7)), "awam: invalid analysis option: unknown strategy 7"},
		{"zero budget", WithMaxSteps(0), "awam: invalid analysis option: nonpositive step budget 0"},
		{"negative budget", WithMaxSteps(-5), "awam: invalid analysis option: nonpositive step budget -5"},
	}
	for _, c := range cases {
		_, err := sys.Analyze(c.opt)
		if !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", c.name, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: err = %q, want %q", c.name, err.Error(), c.want)
		}
	}
}

// TestOptionFirstErrorWins: with several invalid options, Analyze
// reports the first one, and an invalid option beats a bad WithEntry
// pattern (options are validated before the entry is parsed).
func TestOptionFirstErrorWins(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Analyze(WithDepth(-3), WithMaxSteps(-7))
	if err == nil || err.Error() != "awam: invalid analysis option: negative depth -3" {
		t.Fatalf("err = %v, want the first option's error", err)
	}
	_, err = sys.Analyze(WithEntry("rev("), WithMaxSteps(-1))
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("err = %v, want ErrBadOption before entry parsing", err)
	}
	// A failed call must not poison the system: the same receiver
	// analyzes fine immediately afterwards.
	if _, err := sys.Analyze(); err != nil {
		t.Fatalf("analysis after failed option validation: %v", err)
	}
}

// TestOptionBoundaryValues: zero is valid where the docs say it is —
// WithDepth(0) is an extreme but legal widening — and repeated or
// overridden options follow last-one-wins without tripping validation.
func TestOptionBoundaryValues(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := sys.Analyze(WithDepth(0))
	if err != nil {
		t.Fatalf("WithDepth(0): %v", err)
	}
	if a0.Stats().TableSize == 0 {
		t.Fatal("depth-0 analysis produced an empty table")
	}
	// Later options override earlier ones; an overridden invalid value
	// still fails (validation happens at application time).
	if _, err := sys.Analyze(WithDepth(2), WithDepth(6)); err != nil {
		t.Fatalf("repeated WithDepth: %v", err)
	}
	if _, err := sys.Analyze(WithDepth(-1), WithDepth(6)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("overridden invalid depth = %v, want ErrBadOption", err)
	}
}

// TestOptionCombos: strategy combinations all converge on the
// same summaries, and mixing strategy selectors follows last-one-wins.
func TestOptionCombos(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := base.Marshal()
	combos := []struct {
		name string
		opts []AnalyzeOption
	}{
		{"worklist", []AnalyzeOption{WithStrategy(Worklist)}},
		{"naive then worklist (last strategy wins)", []AnalyzeOption{WithStrategy(Naive), WithStrategy(Worklist)}},
		{"worklist then naive (last strategy wins)", []AnalyzeOption{WithStrategy(Worklist), WithStrategy(Naive)}},
		{"explicit naive", []AnalyzeOption{WithStrategy(Naive)}},
	}
	for _, c := range combos {
		a, err := sys.Analyze(c.opts...)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if a.Marshal() != want {
			t.Errorf("%s: summaries differ from the default configuration", c.name)
		}
	}
}
