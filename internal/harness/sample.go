package harness

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// This file is the harness's one timing loop. Every benchtab section
// hands it the legs of one row and reads back a median and quartiles
// per leg. The legs run interleaved, so drift in the machine's speed
// (other tenants, thermal state, a GC backlog) falls on every leg alike
// instead of on whichever leg happened to run last.

// The sample count and the per-sample time floor. -quick trades
// resolution for wall time; neither is an option.
const (
	fullSamples  = 8
	fullFloor    = 20 * time.Millisecond
	quickSamples = 3
	quickFloor   = time.Millisecond
)

// plan returns the sample count and time floor -quick selects.
func plan(quick bool) (samples int, floor time.Duration) {
	if quick {
		return quickSamples, quickFloor
	}
	return fullSamples, fullFloor
}

// Leg is one named piece of work to time. Setup, when set, runs untimed
// before each run of Run: it rebuilds state that one run consumes.
type Leg struct {
	Name  string
	Setup func() error
	Run   func() error
}

// Dist summarizes samples by their median and quartiles.
type Dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Stat is one leg's measurement.
type Stat struct {
	// NsPerOp summarizes the per-sample ns/op.
	NsPerOp Dist `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are medians over the samples of
	// runtime.MemStats deltas, which also count allocation by other
	// goroutines during the run.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// ns holds the per-sample ns/op in pass order, so that sample i of
	// two legs measured together were taken next to each other.
	ns []float64
}

// Sample runs every leg once untimed, then takes the samples in ABBA
// order: passes alternate between the leg order and its reverse, each
// pass taking one sample of every leg. A sample repeats its leg until
// the timed total reaches the floor. The first error stops the run.
func Sample(quick bool, legs ...Leg) ([]Stat, error) {
	n, floor := plan(quick)
	for _, l := range legs {
		if err := l.once(); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
	}
	ns := make([][]float64, len(legs))
	bytes := make([][]float64, len(legs))
	allocs := make([][]float64, len(legs))
	// One collection before the timed passes, so no leg pays for garbage
	// left by earlier work; within the passes the ABBA order spreads
	// each leg's garbage over its neighbours alike.
	runtime.GC()
	for pass := 0; pass < n; pass++ {
		for k := range legs {
			i := k
			if pass%2 == 1 {
				i = len(legs) - 1 - k
			}
			t, b, a, err := legs[i].sample(floor)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", legs[i].Name, err)
			}
			ns[i] = append(ns[i], t)
			bytes[i] = append(bytes[i], b)
			allocs[i] = append(allocs[i], a)
		}
	}
	out := make([]Stat, len(legs))
	for i := range legs {
		out[i] = Stat{
			NsPerOp:     summarize(ns[i]),
			BytesPerOp:  int64(summarize(bytes[i]).Median),
			AllocsPerOp: int64(summarize(allocs[i]).Median),
			ns:          ns[i],
		}
	}
	return out, nil
}

func (l Leg) once() error {
	if l.Setup != nil {
		if err := l.Setup(); err != nil {
			return err
		}
	}
	return l.Run()
}

// sample takes one sample of l and returns its ns, bytes and allocs per
// run. A leg with a setup step is metered around each run, so that the
// setup's time and allocations stay out of the sample.
func (l Leg) sample(floor time.Duration) (ns, bytes, allocs float64, err error) {
	var m meter
	if l.Setup == nil {
		m.start()
	}
	runs := 0
	for {
		if l.Setup != nil {
			if err := l.Setup(); err != nil {
				return 0, 0, 0, err
			}
			m.start()
		}
		err := l.Run()
		if l.Setup != nil {
			m.stop()
		}
		if err != nil {
			return 0, 0, 0, err
		}
		runs++
		if m.elapsed() >= floor {
			break
		}
	}
	if l.Setup == nil {
		m.stop()
	}
	r := float64(runs)
	return float64(m.total) / r, float64(m.bytes) / r, float64(m.allocs) / r, nil
}

// meter accumulates time and allocation over the stretches between
// start and stop.
type meter struct {
	on            bool
	t0            time.Time
	ms            runtime.MemStats
	total         time.Duration
	bytes, allocs uint64
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.on, m.t0 = true, time.Now()
}

func (m *meter) stop() {
	m.total += time.Since(m.t0)
	b, a := m.ms.TotalAlloc, m.ms.Mallocs
	runtime.ReadMemStats(&m.ms)
	m.bytes += m.ms.TotalAlloc - b
	m.allocs += m.ms.Mallocs - a
	m.on = false
}

func (m *meter) elapsed() time.Duration {
	if m.on {
		return m.total + time.Since(m.t0)
	}
	return m.total
}

// summarize returns the median and quartiles of xs, interpolating
// linearly between order statistics.
func summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return Dist{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
}

// ratio summarizes the per-sample quotients of two legs; zero when
// either leg was not measured.
func ratio(num, den Stat) Dist { return summarize(ratioSamples(num, den)) }

// ratioSamples returns num's i-th sample over den's i-th sample, pairing
// samples taken in the same pass.
func ratioSamples(num, den Stat) []float64 {
	if len(num.ns) == 0 || len(num.ns) != len(den.ns) {
		return nil
	}
	r := make([]float64, len(num.ns))
	for i := range r {
		r[i] = num.ns[i] / den.ns[i]
	}
	return r
}

// format renders d as "median [Q1, Q3]" divided by unit.
func (d Dist) format(unit float64, prec int) string {
	return fmt.Sprintf("%.*f [%.*f, %.*f]", prec, d.Median/unit, prec, d.Q1/unit, prec, d.Q3/unit)
}

// hostLine names what the samples ran on, for every table's header.
func hostLine() string {
	return fmt.Sprintf("cpus=%d GOMAXPROCS=%d; timings are median [Q1, Q3] over interleaved samples",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
