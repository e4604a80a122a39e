package awam

import (
	"errors"
	"strings"
	"testing"

	"awam/internal/bench"
)

// TestRegisterLimit pins the deep-term boundary at the facade: a body
// argument nested 70,000 levels deep needs more registers than compiled
// code can address, so Load fails with ErrRegisterLimit (and
// ErrCompile); 65,000 levels still load and analyze to p(+g).
func TestRegisterLimit(t *testing.T) {
	_, err := Load(bench.DeepProgram(70_000).Source)
	if !errors.Is(err, ErrRegisterLimit) || !errors.Is(err, ErrCompile) {
		t.Fatalf("70,000 levels: err = %v, want ErrRegisterLimit and ErrCompile", err)
	}
	sys, err := Load(bench.DeepProgram(65_000).Source)
	if err != nil {
		t.Fatalf("65,000 levels: %v", err)
	}
	an, err := sys.Analyze()
	if err != nil {
		t.Fatalf("65,000 levels: analyze: %v", err)
	}
	if !strings.Contains(an.Report(), "mode    p(+g)\n") {
		t.Fatalf("65,000 levels: report lacks p(+g):\n%s", an.Report())
	}
}
