package awam

import (
	"context"
	"errors"
	"testing"
)

const apiProg = `
main :- rev([1,2,3], R), use(R).
rev([], []).
rev([X|T], R) :- rev(T, RT), app(RT, [X], R).
app([], L, L).
app([X|L1], L2, [X|L3]) :- app(L1, L2, L3).
use(_).
`

// TestTypedErrors: every failure class wraps its documented sentinel.
func TestTypedErrors(t *testing.T) {
	if _, err := Load("p(a"); !errors.Is(err, ErrParse) {
		t.Fatalf("syntax error = %v, want ErrParse", err)
	}
	if _, err := Load("is(X, X)."); !errors.Is(err, ErrCompile) {
		t.Fatalf("builtin redefinition = %v, want ErrCompile", err)
	}
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Analyze(WithEntry("rev(")); !errors.Is(err, ErrParse) {
		t.Fatalf("bad entry pattern = %v, want ErrParse", err)
	}
	if _, err := sys.Analyze(WithDepth(-1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("negative depth = %v, want ErrBadOption", err)
	}
	if _, err := sys.Analyze(WithMaxSteps(-1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("negative budget = %v, want ErrBadOption", err)
	}
	if _, err := sys.Analyze(WithMaxSteps(3)); !errors.Is(err, ErrAnalysisBudget) {
		t.Fatalf("tiny budget = %v, want ErrAnalysisBudget", err)
	}
}

// TestAnalyzeContextCancellation: a canceled context surfaces as
// ErrCanceled wrapping the context cause, under both strategies.
func TestAnalyzeContextCancellation(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]AnalyzeOption{
		nil,
		{WithStrategy(Worklist)},
	} {
		_, err := sys.AnalyzeContext(ctx, opts...)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("opts %v: err = %v, want ErrCanceled", opts, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("opts %v: err = %v, want context.Canceled in chain", opts, err)
		}
	}
}
