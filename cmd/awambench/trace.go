package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"awam/internal/cache"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes. Start and End are offsets from the recorder's epoch.
// A derived span was not timed directly: its duration comes from a
// counter the layer reports (core.Metrics, the timed store) and it is
// laid out inside its parent in the order the layer runs those phases.
// A probe span re-times work on an op's inputs after the measured run,
// outside every op span.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Op      int           `json:"op"`
	Tid     int           `json:"tid"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Derived bool          `json:"derived,omitempty"`
	Probe   bool          `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans and per-op counters in memory; they are read once
// when the run ends. A nil *recorder is the untraced run: every method
// still makes the call it wraps and records nothing.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	nextID   int
	spans    []span
	counters map[int]map[string]float64 // op -> layer metric -> value
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), nextID: 1, counters: make(map[int]map[string]float64)}
}

// id reserves a span ID, so a parent's children can name it before the
// parent itself is recorded.
func (r *recorder) id() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	return id
}

// add records a span with the given ID over [t0, t1].
func (r *recorder) add(s span, t0, t1 time.Time) {
	if r == nil {
		return
	}
	s.Start, s.End = t0.Sub(r.epoch), t1.Sub(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// time runs f as a span named name, child of parent, and returns its ID.
func (r *recorder) time(op, parent, tid int, name string, f func()) int {
	return r.timed(span{Op: op, Parent: parent, Tid: tid, Name: name}, f)
}

// timed runs f as span s (its ID and times filled in) and returns its ID.
func (r *recorder) timed(s span, f func()) int {
	if r == nil {
		f()
		return 0
	}
	s.ID = r.id()
	t0 := time.Now()
	f()
	r.add(s, t0, time.Now())
	return s.ID
}

// derive lays out counter-reported phases back to back from the start of
// the parent span (which must already be recorded), clamped to its end.
func (r *recorder) derive(op, parent int, phases []phase) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var p *span
	for i := range r.spans {
		if r.spans[i].ID == parent {
			p = &r.spans[i]
			break
		}
	}
	if p == nil {
		return
	}
	at := p.Start
	for _, ph := range phases {
		end := at + ph.d
		if end > p.End {
			end = p.End
		}
		r.spans = append(r.spans, span{ID: r.nextID, Parent: parent, Op: op, Tid: p.Tid,
			Name: ph.name, Start: at, End: end, Derived: true})
		r.nextID++
		at = end
	}
}

type phase struct {
	name string
	d    time.Duration
}

// count adds v to an op's layer counter.
func (r *recorder) count(op int, name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.counters[op]
	if m == nil {
		m = make(map[string]float64)
		r.counters[op] = m
	}
	m[name] += v
}

// ratio adds num hits and miss misses to a layer ratio; opLayers
// reports all of an op's hits over all its attempts, or nothing when
// there were none.
func (r *recorder) ratio(op int, name string, num, miss int64) {
	r.count(op, name+ratioNum, float64(num))
	r.count(op, name+ratioDen, float64(num+miss))
}

const ratioNum, ratioDen = "#num", "#den"

// peak raises an op's layer counter to v.
func (r *recorder) peak(op int, name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[op] == nil {
		r.counters[op] = make(map[string]float64)
	}
	r.counters[op][name] = max(r.counters[op][name], v)
}

// opLayers folds the spans and counters of each traced op into its layer
// metrics: every span name N adds its duration to N_ms, and self time is
// reported for the two layers whose own work is the gap between their
// children (inc.analyze, serve.request). Each op also gets its wall time
// (trace.op_ms) and the part and share of it its child spans leave
// uncovered and cover (trace.unattributed_ms, trace.coverage_pct).
func (r *recorder) opLayers() map[int]map[string]float64 {
	children := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[int]map[string]float64)
	get := func(op int) map[string]float64 {
		m := out[op]
		if m == nil {
			m = make(map[string]float64)
			out[op] = m
		}
		return m
	}
	for _, s := range r.spans {
		m := get(s.Op)
		ms := float64(s.dur()) / 1e6
		switch {
		case s.Name == "op":
			cov := 1.0
			if s.dur() > 0 {
				cov = float64(children[s.ID]) / float64(s.dur())
			}
			m["trace.op_ms"] = ms
			m["trace.unattributed_ms"] = float64(s.dur()-children[s.ID]) / 1e6
			m["trace.coverage_pct"] = 100 * cov
		case s.Name == "probe":
		default:
			m[s.Name+"_ms"] += ms
		}
		switch s.Name {
		case "inc.analyze":
			m["inc.analyze_self_ms"] += float64(s.dur()-children[s.ID]) / 1e6
		case "serve.request":
			m["serve.self_ms"] += float64(s.dur()-children[s.ID]) / 1e6
		}
	}
	for op, cm := range r.counters {
		m := get(op)
		for k, v := range cm {
			base, isNum := strings.CutSuffix(k, ratioNum)
			switch {
			case isNum:
				if den := cm[base+ratioDen]; den > 0 {
					m[base] = v / den
				}
			case !strings.HasSuffix(k, ratioDen):
				m[k] += v
			}
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps); pid distinguishes workloads.
func writeChromeTrace(path string, byWorkload map[string][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var names []string
	for w := range byWorkload {
		names = append(names, w)
	}
	sort.Strings(names)
	events := []event{}
	for pid, w := range names {
		for _, s := range byWorkload[w] {
			args := map[string]any{"workload": w, "op": s.Op, "id": s.ID, "parent": s.Parent}
			if s.Derived {
				args["derived"] = true
			}
			if s.Probe {
				args["probe"] = true
			}
			events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
				Dur: float64(s.dur()) / 1e3, Pid: pid + 1, Tid: s.Tid, Args: args})
		}
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedStore is the benchmark's cache.ChunkStore around a memory store
// from cache.New(): it times every call the incremental engine makes and
// passes Prefetch and Flush through, so the engine runs exactly the hooks
// it runs against the facade's store. The engine calls it from one
// goroutine per analysis; take and reset between ops.
type timedStore struct {
	st *cache.Store

	get, put, prefetch, flush time.Duration
	gets, hits, puts          int64
	putBytes                  int64
}

func (t *timedStore) Get(fp cache.Fingerprint) ([]byte, bool) {
	t0 := time.Now()
	data, ok := t.st.Get(fp)
	t.get += time.Since(t0)
	t.gets++
	if ok {
		t.hits++
	}
	return data, ok
}

func (t *timedStore) Put(fp cache.Fingerprint, data []byte) {
	t0 := time.Now()
	t.st.Put(fp, data)
	t.put += time.Since(t0)
	t.puts++
	t.putBytes += int64(len(data))
}

func (t *timedStore) Stats() cache.Stats { return t.st.Stats() }

func (t *timedStore) Prefetch(fps []cache.Fingerprint) {
	t0 := time.Now()
	t.st.Prefetch(fps)
	t.prefetch += time.Since(t0)
}

func (t *timedStore) Flush() {
	t0 := time.Now()
	t.st.Flush()
	t.flush += time.Since(t0)
}

// reset zeroes the per-op counters.
func (t *timedStore) reset() { *t = timedStore{st: t.st} }
