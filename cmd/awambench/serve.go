package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awam"
	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/serve"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

const (
	// serveRate is the mean arrival rate of serve_mixed, in requests per
	// second: at about 60 ms of mean service time it keeps each of the
	// two connections busy about an eighth of the time, so latency
	// reflects service time and the queueing a Poisson burst causes, not
	// a growing backlog.
	serveRate = 4.0
	// serveConns bounds the client connections (nproc on the reference
	// box; the open loop never needs more at this rate).
	serveConns = 2
	// serveDrain is how long requests may still complete after the last
	// arrival; any request outstanding after it counts as failed.
	serveDrain = 15 * time.Second
	// lateLimit is the generator lateness p99 above which a run is
	// marked invalid: its arrivals no longer follow the schedule.
	lateLimit = 50 * time.Millisecond
	// serveTracedOps is the request count of a traced run.
	serveTracedOps = 40
	// latencyLimit is serve_mixed's latency limit on p90.
	latencyLimit = 500 * time.Millisecond
	// backwardShare is the share of backward requests.
	backwardShare = 0.5
	// analyzeFamilies sizes the /v1/analyze program. Building an analyze
	// response costs time quadratic in the predicate count, so wide_512
	// takes seconds per request; wide_32 makes the two routes' latencies
	// about equal, which keeps the connections mostly idle at serveRate
	// and puts p50 and p90 inside one mode rather than in a gap between
	// two.
	analyzeFamilies = 32
)

// arrival is one scheduled request of serve_mixed.
type arrival struct {
	at       time.Duration // offset of its due time from the run start
	backward bool
	goal     string // backward: the demanded p<i>_main/0
	edit     string // analyze: the neutral clause appended to wide_32
}

// serveMixed is the serve_mixed workload: an open loop against the
// in-process daemon handler on loopback. Half the requests are
// POST /v1/backward over wide_512 with one seeded family goal, half are
// POST /v1/analyze over wide_32 plus one distinct neutral clause.
type serveMixed struct {
	wide512, small string
	body512        []byte // JSON string literal of wide_512
	sched          []arrival
	window         time.Duration

	analyzeRef string            // digest of wide_32's canonical predicates
	bwdRefs    map[string]string // goal -> digest of its canonical demands

	srv  *http.Server
	done chan struct{}
	url  string
	hook *hookState // nil when untraced
}

// schedule draws n arrivals over window: given their count, Poisson
// arrivals are independent uniform times, so sorting n uniform draws is
// a Poisson schedule of exactly n requests. Exactly backwardShare of
// them are backward.
func (w *serveMixed) schedule(seed int64, n int, window time.Duration) {
	r := rand.New(rand.NewSource(seed))
	w.window = window
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = r.Float64()
	}
	sort.Float64s(ats)
	kinds := r.Perm(n)
	w.sched = make([]arrival, n)
	for i := range w.sched {
		a := arrival{at: time.Duration(ats[i] * float64(window)), backward: kinds[i] < int(backwardShare*float64(n))}
		if a.backward {
			a.goal = fmt.Sprintf("p%d_main/0", r.Intn(512))
		} else {
			a.edit = fmt.Sprintf("p%d_use(mutant_%d).\n", r.Intn(analyzeFamilies), i)
		}
		w.sched[i] = a
	}
}

func (w *serveMixed) prepare(seed int64, n int, window time.Duration) error {
	w.wide512 = bench.WideProgramSeeded(512, seed).Source
	w.small = bench.WideProgramSeeded(analyzeFamilies, seed).Source
	b, err := json.Marshal(w.wide512)
	if err != nil {
		return err
	}
	w.body512 = b
	w.schedule(seed, n, window)

	ref, err := summariesDigest(w.small)
	if err != nil {
		return err
	}
	w.analyzeRef = ref
	proved := 0
	w.bwdRefs = make(map[string]string)
	sys, err := awam.Load(w.wide512)
	if err != nil {
		return err
	}
	for _, a := range w.sched {
		switch {
		case a.backward && w.bwdRefs[a.goal] == "":
			b, err := sys.AnalyzeBackward(awam.WithGoal(a.goal))
			if err != nil {
				return fmt.Errorf("backward reference %s: %w", a.goal, err)
			}
			d := make(map[string]awam.Demand)
			for _, dm := range b.Demands() {
				d[dm.Pred] = dm
			}
			w.bwdRefs[a.goal] = jsonDigest(d)
		case !a.backward && proved < 2:
			got, err := summariesDigest(w.small + a.edit)
			if err != nil {
				return err
			}
			if got != ref {
				return fmt.Errorf("edit %q is not neutral", a.edit)
			}
			proved++
		}
	}
	return nil
}

// summariesDigest is the reference for /v1/analyze: the digest of the
// canonical JSON of every predicate's Summary, from the generic engine
// under the worklist fixpoint (the daemon's store runs the worklist) and
// no store.
func summariesDigest(src string) (string, error) {
	sys, err := awam.Load(src)
	if err != nil {
		return "", err
	}
	a, err := sys.Analyze(awam.WithStrategy(awam.Worklist), awam.WithSpecializedTransfer(false))
	if err != nil {
		return "", err
	}
	return jsonDigest(summaries(a)), nil
}

// summaries builds the predicates map the way the daemon's /v1/analyze
// handler does.
func summaries(a *awam.Analysis) map[string]awam.Summary {
	m := make(map[string]awam.Summary)
	for _, p := range a.Predicates() {
		if s, ok := a.Summary(p); ok {
			m[p] = s
		}
	}
	return m
}

// setup starts a fresh daemon on loopback and primes its store with one
// backward query over every family goal and one analysis of the base
// wide_32, so timed backward requests are served from the store and
// timed analyze requests re-analyze only their edit's cone.
func (w *serveMixed) setup(traced bool) error {
	w.teardown()
	cfg := serve.Config{}
	w.hook = nil
	if traced {
		w.hook = &hookState{}
		cfg.Analyze, cfg.Backward = w.hook.analyze, w.hook.backward
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.srv = &http.Server{
		Handler: s.Handler(),
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, connKey{}, c.RemoteAddr().String())
		},
	}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed at teardown
	}()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	goals := make([]string, 512)
	for i := range goals {
		goals[i] = fmt.Sprintf("p%d_main/0", i)
	}
	// Priming asks for the daemon's longest deadline: the query over
	// every goal takes about a second here but may take longer than the
	// default 10 s on a slow or instrumented build.
	const primeTimeoutMS = 60_000
	if _, err := post(context.Background(), client, w.url+"/v1/backward",
		jsonBody(map[string]any{"source": w.wide512, "goals": goals, "timeout_ms": primeTimeoutMS})); err != nil {
		return fmt.Errorf("prime backward: %w", err)
	}
	if _, err := post(context.Background(), client, w.url+"/v1/analyze",
		jsonBody(map[string]any{"source": w.small, "timeout_ms": primeTimeoutMS})); err != nil {
		return fmt.Errorf("prime analyze: %w", err)
	}
	return nil
}

// teardown stops the daemon and waits for its serve loop to return.
func (w *serveMixed) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.srv.Close()
	}
	<-w.done
	w.srv = nil
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

// body is request i's JSON body. Backward bodies share the pre-encoded
// wide_512 source.
func (w *serveMixed) body(i int) (string, []byte) {
	a := w.sched[i]
	if a.backward {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"goals":[%q],"source":`, a.goal)
		b.Write(w.body512)
		b.WriteByte('}')
		return "/v1/backward", b.Bytes()
	}
	return "/v1/analyze", jsonBody(map[string]any{"source": w.small + a.edit})
}

// post sends one request and returns the response body; a non-200
// status is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// check compares a response's predicates or demands, re-encoded
// canonically, with request i's reference.
func (w *serveMixed) check(i int, data []byte) error {
	a := w.sched[i]
	var resp struct {
		Predicates map[string]awam.Summary `json:"predicates"`
		Demands    map[string]awam.Demand  `json:"demands"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	got, want := jsonDigest(resp.Predicates), w.analyzeRef
	if a.backward {
		got, want = jsonDigest(resp.Demands), w.bwdRefs[a.goal]
	}
	if got != want {
		return errors.New("response differs from the reference")
	}
	return nil
}

// outcome is one request's measurement.
type outcome struct {
	done             bool // completed, whatever its result
	err              error
	latency          time.Duration // from due to done
	end              time.Duration // done, from the run start
	late             time.Duration // generator lateness
	backward, traced bool
}

// run plays the schedule: a generator goroutine releases each request at
// its due time to serveConns workers, each with its own connection.
// Latency is timed from the due time, so waiting for a busy connection
// counts. rec, when set, traces every even request.
func (w *serveMixed) run(rec *recorder) ([]outcome, time.Duration) {
	outs := make([]outcome, len(w.sched))
	queue := make(chan int, len(w.sched)) // sized to the number of sends
	start := time.Now().Add(20 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(w.window+serveDrain))
	defer cancel()

	var wg sync.WaitGroup
	for k := 0; k < serveConns; k++ {
		client := w.client(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range queue {
				outs[i].backward = w.sched[i].backward
				if ctx.Err() != nil {
					outs[i].err = errors.New("outstanding when the run ended")
					continue
				}
				due := start.Add(w.sched[i].at)
				traced := rec != nil && i%2 == 0
				var root, req int
				if traced {
					root, req = rec.id(), rec.id()
					w.hook.cur[k].Store(&inflight{op: i, req: req, tid: k + 1})
				}
				path, body := w.body(i)
				sent := time.Now()
				data, err := post(ctx, client, w.url+path, body)
				done := time.Now()
				if traced {
					w.hook.cur[k].Store(nil)
					rec.add(span{ID: req, Parent: root, Op: i, Tid: k + 1, Name: "serve.request"}, sent, done)
					rec.add(span{ID: rec.id(), Parent: root, Op: i, Tid: k + 1, Name: "serve.wait"}, due, sent)
					rec.add(span{ID: root, Op: i, Tid: k + 1, Name: "op"}, due, done)
				}
				if err == nil {
					err = w.check(i, data)
				}
				o := &outs[i]
				o.done, o.err, o.traced = err == nil || ctx.Err() == nil, err, traced
				o.latency, o.end = done.Sub(due), done.Sub(start)
			}
		}()
	}
	for i, a := range w.sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		outs[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	elapsed := w.window
	for _, o := range outs {
		elapsed = max(elapsed, o.end)
	}
	return outs, elapsed
}

// client returns worker k's HTTP client: one connection, whose local
// address the traced daemon hooks map back to worker k.
func (w *serveMixed) client(k int) *http.Client {
	d := &net.Dialer{}
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err == nil && w.hook != nil {
				w.hook.conns.Store(c.LocalAddr().String(), k)
			}
			return c, err
		},
	}}
}

// probe re-times, after the run and outside every request span, the
// layers a traced request ran inside the daemon where the benchmark
// cannot time them: parse and compile (inside awam.Load), condensation,
// the specialized-stream build of /v1/analyze, and the handler's
// per-predicate Summary loop and its JSON encoding.
func (w *serveMixed) probe(rec *recorder, i int) {
	a := w.sched[i]
	src := w.wide512
	if !a.backward {
		src = w.small + a.edit
	}
	root := rec.id()
	t0 := time.Now()
	tab := term.NewTab()
	var (
		prog *term.Program
		mod  *wam.Module
		err  error
		plan *inc.Plan
	)
	ps := func(name string, f func()) { rec.timed(span{Op: i, Parent: root, Name: name, Probe: true}, f) }
	ps("parser.parse", func() { prog, err = parser.ParseProgram(tab, src) })
	if err == nil {
		ps("compiler.compile", func() { mod, err = compiler.Compile(tab, prog) })
	}
	if err == nil {
		ps("inc.condense", func() { plan = inc.Condense(mod, core.Config{}) })
		if !a.backward {
			ps("specialize.build", func() {
				comps := make([][]term.Functor, len(plan.SCCs))
				for j, scc := range plan.SCCs {
					comps[j] = scc.Members
				}
				specialize.Build(mod, comps, specialize.StaticProfile(mod), specialize.Options{Fuse: true, PreIntern: true})
			})
		}
	}
	if an, ok := w.hook.analyses.Load(i); ok {
		var m map[string]awam.Summary
		ps("awam.summaries", func() { m = summaries(an.(*awam.Analysis)) })
		ps("awam.marshal", func() { json.Marshal(m) }) //nolint:errcheck // timing only
	}
	rec.add(span{ID: root, Op: i, Name: "probe", Probe: true}, t0, time.Now())
}

// connKey carries the client address of a request's connection into the
// daemon hooks' context.
type connKey struct{}

// inflight is the traced request a worker has on its connection.
type inflight struct{ op, req, tid int }

// hookState implements serve.Config's Analyze and Backward hooks for
// the traced run. Each hook makes the calls the daemon's own pipeline
// makes (awam.Load, then the analysis) and records them under the
// request's span when the request is traced.
type hookState struct {
	rec      *recorder
	conns    sync.Map // client address -> worker
	cur      [serveConns]atomic.Pointer[inflight]
	analyses sync.Map // op -> *awam.Analysis, for the probes
}

func (h *hookState) which(ctx context.Context) *inflight {
	addr, _ := ctx.Value(connKey{}).(string)
	k, ok := h.conns.Load(addr)
	if !ok {
		return nil
	}
	return h.cur[k.(int)].Load()
}

// traced runs load then analyze, as spans under the request when it is
// traced.
func (h *hookState) traced(ctx context.Context, source, name string, analyze func(*awam.System) error) (*inflight, int, error) {
	f := h.which(ctx)
	var rec *recorder
	var op, tid, hook int
	if f != nil {
		rec, op, tid, hook = h.rec, f.op, f.tid, h.rec.id()
	}
	t0 := time.Now()
	var sys *awam.System
	var err error
	rec.time(op, hook, tid, "awam.load", func() { sys, err = awam.Load(source) })
	id := 0
	if err == nil {
		id = rec.time(op, hook, tid, name, func() { err = analyze(sys) })
	}
	if f != nil {
		rec.add(span{ID: hook, Parent: f.req, Op: op, Tid: tid, Name: "serve.hook"}, t0, time.Now())
	}
	return f, id, err
}

func (h *hookState) analyze(ctx context.Context, source string, opts ...awam.AnalyzeOption) (*awam.Analysis, error) {
	var a *awam.Analysis
	f, id, err := h.traced(ctx, source, "awam.analyze", func(sys *awam.System) (err error) {
		a, err = sys.AnalyzeContext(ctx, opts...)
		return err
	})
	if err != nil || f == nil {
		return a, err
	}
	rec, op := h.rec, f.op
	m := a.Metrics()
	rec.derive(op, id, []phase{{"core.execute", m.ExecuteTime}, {"core.finalize", m.FinalizeTime}})
	rec.count(op, "compiler.code_size", float64(a.System().CodeSize()))
	rec.count(op, "core.steps", float64(a.Stats().Exec))
	rec.count(op, "core.table_ms_est", float64(m.TableTime)/1e6)
	rec.peak(op, "core.heap_cells_peak", float64(m.HeapHighWater))
	rec.ratio(op, "core.table_hit_ratio", m.TableHits, m.TableMisses)
	rec.ratio(op, "core.intern_hit_ratio", m.InternHits, m.InternMisses)
	rec.ratio(op, "core.lubcache_hit_ratio", m.LubCacheHits, m.LubCacheMisses)
	rec.ratio(op, "core.warm_hit_ratio", m.WarmHits, m.WarmMisses)
	rec.count(op, "cache.gets", float64(m.CacheHits+m.CacheMisses))
	rec.ratio(op, "cache.hit_ratio", m.CacheHits, m.CacheMisses)
	rec.count(op, "cache.evictions", float64(m.CacheEvictions))
	if in, ok := a.Incremental(); ok {
		rec.count(op, "inc.sccs", float64(in.SCCs))
		rec.count(op, "inc.warm_sccs", float64(in.WarmSCCs))
		rec.ratio(op, "inc.warm_ratio", int64(in.WarmSCCs), int64(in.SCCs-in.WarmSCCs))
	}
	h.analyses.Store(op, a)
	return a, nil
}

func (h *hookState) backward(ctx context.Context, source string, opts ...awam.BackwardOption) (*awam.BackwardAnalysis, error) {
	var b *awam.BackwardAnalysis
	f, _, err := h.traced(ctx, source, "backward.analyze", func(sys *awam.System) (err error) {
		b, err = sys.AnalyzeBackwardContext(ctx, opts...)
		return err
	})
	if err != nil || f == nil {
		return b, err
	}
	rec, op := h.rec, f.op
	st := b.Stats()
	rec.count(op, "compiler.code_size", float64(b.System().CodeSize()))
	rec.count(op, "backward.condense_ms", float64(st.CondenseMS))
	rec.count(op, "backward.forward_ms", float64(st.ForwardMS))
	rec.count(op, "backward.solve_ms", float64(st.SolveMS))
	rec.count(op, "backward.visited_sccs", float64(st.VisitedSCCs))
	rec.count(op, "backward.executed_sccs", float64(st.ExecutedSCCs))
	rec.ratio(op, "backward.reused_ratio", int64(st.ReusedSCCs), int64(st.ExecutedSCCs))
	return b, nil
}

// serveMetrics summarizes the completed requests among outs.
func serveMetrics(outs []outcome, elapsed time.Duration) map[string]float64 {
	var all, ana, bwd, late []float64
	for _, o := range outs {
		late = append(late, ms(o.late))
		if o.err != nil {
			continue
		}
		all = append(all, ms(o.latency))
		if o.backward {
			bwd = append(bwd, ms(o.latency))
		} else {
			ana = append(ana, ms(o.latency))
		}
	}
	return map[string]float64{
		"latency_p50_ms":   quantile(all, 0.5),
		"latency_p90_ms":   quantile(all, 0.9),
		"throughput_ops_s": float64(len(all)) / elapsed.Seconds(),
		"samples":          float64(len(all)),
		"analyze_p50_ms":   quantile(ana, 0.5),
		"analyze_samples":  float64(len(ana)),
		"backward_p50_ms":  quantile(bwd, 0.5),
		"backward_samples": float64(len(bwd)),
		"lateness_p50_ms":  quantile(late, 0.5),
		"lateness_p99_ms":  quantile(late, 0.99),
	}
}

// serveInvalid says why a run's arrivals did not follow the schedule,
// or returns "" when they did.
func serveInvalid(outs []outcome) string {
	var late []float64
	var reasons []string
	outstanding := false
	for _, o := range outs {
		late = append(late, ms(o.late))
		outstanding = outstanding || !o.done
	}
	if p99 := quantile(late, 0.99); p99 > ms(lateLimit) {
		reasons = append(reasons, fmt.Sprintf("generator lateness p99 %.1f ms above %v", p99, lateLimit))
	}
	if outstanding {
		reasons = append(reasons, "requests outstanding when the run ended")
	}
	return strings.Join(reasons, "; ")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// requests is the arrival count of a run of the given length.
func requests(window time.Duration) int {
	return max(2, int(math.Round(serveRate*window.Seconds())))
}
