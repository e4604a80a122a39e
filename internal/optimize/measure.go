package optimize

import (
	"time"

	"awam/internal/machine"
	"awam/internal/wam"
)

// Measure runs goal on mod runs times (each on a fresh machine and a
// fresh module copy, since query compilation appends to the module) and
// returns the fastest wall time with that run's executed-instruction
// count. Goal failure is still a measurement; only machine errors abort.
func Measure(mod *wam.Module, goal string, runs int) (time.Duration, int64, error) {
	best := time.Duration(-1)
	var steps int64
	for i := 0; i < runs; i++ {
		m := machine.New(mod.Clone())
		start := time.Now()
		sol, err := m.Solve(goal)
		d := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		_ = sol
		if best < 0 || d < best {
			best = d
			steps = m.Steps
		}
	}
	return best, steps, nil
}
