package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"awam"
	"awam/internal/bench"
)

// TestRegisterLimitEveryCommand checks that run, analyze, backward and
// optimize all reject a 70,000-level term with the same typed error.
func TestRegisterLimitEveryCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep.pl")
	if err := os.WriteFile(path, []byte(bench.DeepProgram(70_000).Source), 0o644); err != nil {
		t.Fatal(err)
	}
	cmds := []struct {
		name string
		run  func([]string) error
	}{
		{"run", cmdRun},
		{"analyze", cmdAnalyze},
		{"backward", cmdBackward},
		{"optimize", cmdOptimize},
	}
	for _, c := range cmds {
		if err := c.run([]string{path}); !errors.Is(err, awam.ErrRegisterLimit) {
			t.Errorf("awam %s: err = %v, want ErrRegisterLimit", c.name, err)
		}
	}
}
