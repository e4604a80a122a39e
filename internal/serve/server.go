// Package serve implements the awamd analysis service: an HTTP front
// end over the incremental analysis engine. One process holds one
// SummaryCache, so every request warms the next — the daemon turns the
// per-component summary reuse of internal/inc into a long-lived
// analysis server for editors and CI.
//
// Endpoints (versioned under /v1; the request and response types live
// in the importable awam/api package):
//
//	POST /v1/analyze    {"source": "...", "timeout_ms"?, "max_steps"?, "depth"?}
//	                    -> per-predicate summaries + run stats + cache stats
//	POST /v1/backward   {"source": "...", "goals"?, "timeout_ms"?, "max_steps"?, "depth"?}
//	                    -> per-predicate weakest demands + run stats + cache stats
//	POST /v1/optimize   {"source": "...", "passes"?, "gate_goals"?, ...}
//	                    -> differentially-gated optimizer report (+ disasm)
//	POST /v1/store/has  batched summary-fabric presence probe (store.go)
//	POST /v1/store/get  batched record fetch
//	POST /v1/store/put  batched record push
//	GET  /v1/healthz    -> {"status":"ok"}
//	GET  /v1/metrics    -> Prometheus text exposition
//
// Loaded programs stay in the daemon (programs.go): a repeat request on
// an unchanged source reuses its compiled System, condensation and
// specialized program instead of parsing and compiling it again, and an
// edited source is derived from the last program loaded, reading and
// compiling only what the edit touched.
//
// Robustness: request bodies are size-capped, each analysis runs under
// a per-request deadline and optional abstract-step budget, a worker
// semaphore bounds concurrent analyses, and identical concurrent
// analyze requests are coalesced into a single analysis (singleflight).
// Errors are typed JSON: {"error":{"code":"...","message":"..."}}.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awam"
	"awam/api"
)

// The wire types are declared in awam/api; the server uses them
// directly so the daemon and its clients cannot drift apart.
type (
	analyzeRequest   = api.AnalyzeRequest
	analyzeResponse  = api.AnalyzeResponse
	optimizeRequest  = api.OptimizeRequest
	optimizeResponse = api.OptimizeResponse
	errorBody        = api.ErrorBody
)

// Config parameterizes a Server. The zero value is usable: defaults are
// filled by New.
type Config struct {
	// Cache is the shared summary store; nil gets a private in-memory
	// store with the default budget. Configure it with awam.WithRemote
	// to make this daemon a fabric member that pulls from and pushes to
	// a peer.
	Cache awam.Store
	// MaxBodyBytes caps the /v1/analyze, /v1/backward and /v1/optimize
	// request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxStoreBodyBytes caps /v1/store request bodies, which carry
	// record batches and so run larger than analyze bodies (default
	// 32 MiB). MaxRecordBytes caps one record within a batch (default
	// 4 MiB); oversized records are skipped, not failed.
	MaxStoreBodyBytes, MaxRecordBytes int64
	// MaxConcurrent bounds simultaneously running analyses (default 4);
	// excess requests wait for a slot until their deadline. It also
	// bounds the loaded programs the daemon keeps resident: as many as
	// that many concurrent requests hold at peak anyway.
	MaxConcurrent int
	// DefaultTimeout applies when a request names none (default 10s);
	// MaxTimeout clamps request-supplied deadlines (default 60s).
	DefaultTimeout, MaxTimeout time.Duration
	// MaxSteps clamps the per-request abstract-step budget; 0 leaves
	// request budgets uncapped.
	MaxSteps int64
	// Analyze overrides the analysis pipeline of /v1/analyze and
	// /v1/optimize (tests inject failures and slowness here); nil selects
	// the real path: the System from the daemon's program cache, then
	// AnalyzeContext. A hook loads its own programs; the program cache is
	// bypassed.
	Analyze func(ctx context.Context, source string, opts ...awam.AnalyzeOption) (*awam.Analysis, error)
	// Backward overrides the demand-query pipeline the same way; nil
	// selects the cached System and AnalyzeBackwardContext.
	Backward func(ctx context.Context, source string, opts ...awam.BackwardOption) (*awam.BackwardAnalysis, error)
}

// Server handles the analysis endpoints. Create with New, mount with
// Handler.
type Server struct {
	cfg      Config
	cache    awam.Store
	programs *programCache
	sem      chan struct{}

	mu         sync.Mutex
	flights    map[string]*flight
	bwdFlights map[string]*bwdFlight

	// Counters for /metrics.
	requestsOK, requestsErr         atomic.Int64
	analysesRun, analysesDup        atomic.Int64
	backwardsRun, backwardsDup      atomic.Int64
	backwardSteps                   atomic.Int64
	backwardVisited, backwardReused atomic.Int64
	optimizesRun                    atomic.Int64
	inflight                        atomic.Int64
	storeHas, storeGet, storePut    atomic.Int64
	recordsServed, recordsStored    atomic.Int64
	// The /v1/analyze work a derived program reuses: component
	// fingerprints taken from the memo or hashed, and predicate
	// summaries kept with the store or computed.
	fpReused, fpHashed       atomic.Int64
	sumsStored, sumsComputed atomic.Int64
}

// flight is one in-progress analysis shared by coalesced requests.
type flight struct {
	done chan struct{}
	resp *analyzeResponse
	err  error
}

// bwdFlight is one in-progress demand query shared by coalesced
// requests.
type bwdFlight struct {
	done chan struct{}
	resp *backwardResponse
	err  error
}

// New builds a server, filling config defaults.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		c, err := awam.NewStore()
		if err != nil {
			return nil, err
		}
		cfg.Cache = c
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxStoreBodyBytes <= 0 {
		cfg.MaxStoreBodyBytes = 32 << 20
	}
	if cfg.MaxRecordBytes <= 0 {
		cfg.MaxRecordBytes = 4 << 20
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	return &Server{
		cfg:        cfg,
		cache:      cfg.Cache,
		programs:   newProgramCache(cfg.MaxConcurrent),
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		flights:    make(map[string]*flight),
		bwdFlights: make(map[string]*bwdFlight),
	}, nil
}

// Handler returns the route mux: the versioned /v1 routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/backward", s.handleBackward)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/store/has", s.handleStoreHas)
	mux.HandleFunc("POST /v1/store/get", s.handleStoreGet)
	mux.HandleFunc("POST /v1/store/put", s.handleStorePut)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !s.readRequest(w, r, func(data []byte) error { return decodeAnalyze(data, &req) }) {
		return
	}
	if req.Source == "" {
		s.fail(w, http.StatusBadRequest, "bad_request", `missing "source"`)
		return
	}
	if req.MaxSteps < 0 || req.TimeoutMS < 0 || req.Depth < 0 {
		s.fail(w, http.StatusBadRequest, "bad_request", "negative limits")
		return
	}
	if s.cfg.MaxSteps > 0 && (req.MaxSteps == 0 || req.MaxSteps > s.cfg.MaxSteps) {
		req.MaxSteps = s.cfg.MaxSteps
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	resp, err := s.analyze(ctx, &req)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.requestsOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// flightKey addresses identical analyses: same source (by its digest)
// under the same result-affecting options. The timeout is excluded — it
// bounds the wait, not the answer.
func flightKey(req *analyzeRequest, src source) string {
	h := sha256.New()
	fmt.Fprintf(h, "steps=%d depth=%d\n", req.MaxSteps, req.Depth)
	h.Write(src.digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

// analyze coalesces identical concurrent requests onto one analysis and
// runs the winner under the worker semaphore.
func (s *Server) analyze(ctx context.Context, req *analyzeRequest) (*analyzeResponse, error) {
	src := newSource(req.Source)
	key := flightKey(req, src)
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			s.analysesDup.Add(1)
			dup := *f.resp
			dup.Coalesced = true
			return &dup, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.resp, f.err = s.runAnalysis(ctx, req, src)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.resp, f.err
}

func (s *Server) runAnalysis(ctx context.Context, req *analyzeRequest, src source) (*analyzeResponse, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	opts := []awam.AnalyzeOption{awam.WithSummaryCache(s.cache)}
	if req.MaxSteps > 0 {
		opts = append(opts, awam.WithMaxSteps(req.MaxSteps))
	}
	if req.Depth > 0 {
		opts = append(opts, awam.WithDepth(req.Depth))
	}
	start := time.Now()
	a, err := s.doAnalyze(ctx, src, opts...)
	if err != nil {
		return nil, err
	}
	s.analysesRun.Add(1)

	resp := &analyzeResponse{Predicates: make(map[string]awam.Summary), ElapsedMS: time.Since(start).Milliseconds()}
	for _, pred := range a.Predicates() {
		if sum, ok := a.Summary(pred); ok {
			resp.Predicates[pred] = sum
		}
	}
	st := a.Stats()
	resp.Stats = api.AnalysisStats{Exec: st.Exec, Iterations: st.Iterations, TableSize: st.TableSize}
	if inc, ok := a.Incremental(); ok {
		resp.Incremental = &api.Incremental{
			SCCs: inc.SCCs, WarmSCCs: inc.WarmSCCs,
			WarmPatterns: inc.WarmPatterns, ColdPatterns: inc.ColdPatterns,
		}
		s.fpReused.Add(int64(inc.SCCs - inc.HashedFingerprints))
		s.fpHashed.Add(int64(inc.HashedFingerprints))
		s.sumsStored.Add(inc.StoredSummaries)
		s.sumsComputed.Add(inc.ComputedSummaries)
	}
	cs := s.cache.Stats()
	resp.Cache = api.Cache{
		Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
		DiskLoads: cs.DiskLoads, RemoteLoads: cs.RemoteLoads,
		RemoteMisses: cs.RemoteMisses, RemotePuts: cs.RemotePuts,
		RemoteRoundTrips: cs.RemoteRoundTrips, RemoteErrors: cs.RemoteErrors,
		Degraded: cs.Degraded, Entries: cs.Entries, Bytes: cs.Bytes,
	}
	return resp, nil
}

// handleOptimize analyzes the posted source and runs the gated
// optimizer pipeline over it, returning the per-pass report (optimize
// requests are not coalesced: the report carries timing measurements
// that should reflect each request's own run).
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req optimizeRequest
	if !s.readRequest(w, r, func(data []byte) error { return decodeJSON(data, &req) }) {
		return
	}
	if req.Source == "" {
		s.fail(w, http.StatusBadRequest, "bad_request", `missing "source"`)
		return
	}
	if req.TimeoutMS < 0 || req.MeasureRuns < 0 {
		s.fail(w, http.StatusBadRequest, "bad_request", "negative limits")
		return
	}
	if req.MeasureRuns > api.MaxMeasureRuns {
		s.fail(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("measure_runs exceeds %d", api.MaxMeasureRuns))
		return
	}
	if len(req.GateGoals) > api.MaxGateGoals {
		s.fail(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("gate_goals exceeds %d", api.MaxGateGoals))
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.failErr(w, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx)))
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	start := time.Now()
	a, err := s.doAnalyze(ctx, newSource(req.Source), awam.WithSummaryCache(s.cache))
	if err != nil {
		s.failErr(w, err)
		return
	}
	var opts []awam.OptimizeOption
	if len(req.Passes) > 0 {
		opts = append(opts, awam.WithPasses(req.Passes...))
	}
	if len(req.GateGoals) > 0 {
		opts = append(opts, awam.WithGateGoals(req.GateGoals...))
	}
	if req.MeasureRuns > 0 {
		opts = append(opts, awam.WithMeasureRuns(req.MeasureRuns))
	}
	opt, report, err := a.System().OptimizeContext(ctx, a, opts...)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.optimizesRun.Add(1)
	resp := &optimizeResponse{Report: report, ElapsedMS: time.Since(start).Milliseconds()}
	if req.Disasm {
		resp.Disasm = opt.Disasm()
	}
	s.requestsOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) doAnalyze(ctx context.Context, src source, opts ...awam.AnalyzeOption) (*awam.Analysis, error) {
	if s.cfg.Analyze != nil {
		return s.cfg.Analyze(ctx, src.text, opts...)
	}
	sys, err := s.programs.load(ctx, src)
	if err != nil {
		return nil, err
	}
	return sys.AnalyzeContext(ctx, opts...)
}

// failErr maps the facade's typed errors onto HTTP error responses.
func (s *Server) failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, awam.ErrParse):
		s.fail(w, http.StatusUnprocessableEntity, "parse_error", err.Error())
	case errors.Is(err, awam.ErrRegisterLimit):
		s.fail(w, http.StatusUnprocessableEntity, "register_limit", err.Error())
	case errors.Is(err, awam.ErrCompile):
		s.fail(w, http.StatusUnprocessableEntity, "compile_error", err.Error())
	case errors.Is(err, awam.ErrAnalysisBudget):
		s.fail(w, http.StatusUnprocessableEntity, "budget_exhausted", err.Error())
	case errors.Is(err, awam.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		s.fail(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, awam.ErrBadOption):
		s.fail(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, awam.ErrOptimize):
		s.fail(w, http.StatusUnprocessableEntity, "optimize_rejected", err.Error())
	default:
		s.fail(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	s.requestsErr.Add(1)
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	writeJSON(w, status, body)
}

// boolGauge renders a bool as a 0/1 Prometheus gauge value.
func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// handleMetrics writes the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range []struct {
		name, help, typ string
		value           int64
	}{
		{"awamd_requests_total{result=\"ok\"}", "Completed /v1/analyze, /v1/backward, /v1/optimize and /v1/store/* requests, by outcome.", "counter", s.requestsOK.Load()},
		{"awamd_requests_total{result=\"error\"}", "", "", s.requestsErr.Load()},
		{"awamd_analyses_total", "Analyses actually executed.", "counter", s.analysesRun.Load()},
		{"awamd_analyses_coalesced_total", "Requests served by joining an identical in-flight analysis.", "counter", s.analysesDup.Load()},
		{"awamd_backward_analyses_total", "Backward demand queries actually executed.", "counter", s.backwardsRun.Load()},
		{"awamd_backward_coalesced_total", "Backward requests served by joining an identical in-flight query.", "counter", s.backwardsDup.Load()},
		{"awamd_backward_steps_total", "Backward abstract transfer steps executed.", "counter", s.backwardSteps.Load()},
		{"awamd_backward_visited_sccs_total", "Call-graph components visited by backward queries (the demanded cones).", "counter", s.backwardVisited.Load()},
		{"awamd_backward_reused_sccs_total", "Backward components served from the summary store.", "counter", s.backwardReused.Load()},
		{"awamd_optimizes_total", "Optimizer pipeline runs executed.", "counter", s.optimizesRun.Load()},
		{"awamd_inflight_analyses", "Analyses currently running.", "gauge", s.inflight.Load()},
		{"awamd_programs_resident", "Loaded programs kept for repeat requests.", "gauge", int64(s.programs.residentCount())},
		{"awamd_program_loads_total{result=\"hit\"}", "Program loads by outcome: a hit reused a resident or in-flight program, a miss parsed the source.", "counter", s.programs.hits.Load()},
		{"awamd_program_loads_total{result=\"miss\"}", "", "", s.programs.misses.Load()},
		{"awamd_program_derivations_total", "Program loads that derived an edited source from the last program loaded, reading and compiling only what the edit touched.", "counter", s.programs.derivations.Load()},
		{"awamd_fingerprints_total{result=\"reused\"}", "Component fingerprints of /v1/analyze programs, by outcome: reused from the program's memo, or hashed.", "counter", s.fpReused.Load()},
		{"awamd_fingerprints_total{result=\"hashed\"}", "", "", s.fpHashed.Load()},
		{"awamd_summaries_total{result=\"stored\"}", "Predicate summaries of /v1/analyze responses, by outcome: reused from those kept with the summary store, or computed.", "counter", s.sumsStored.Load()},
		{"awamd_summaries_total{result=\"computed\"}", "", "", s.sumsComputed.Load()},
		{"awamd_cache_hits_total", "Summary-store record hits (any tier).", "counter", cs.Hits},
		{"awamd_cache_misses_total", "Summary-store record misses.", "counter", cs.Misses},
		{"awamd_cache_evictions_total", "Summary-store evictions.", "counter", cs.Evictions},
		{"awamd_cache_disk_loads_total", "Summary-store records faulted in from disk.", "counter", cs.DiskLoads},
		{"awamd_cache_remote_loads_total", "Summary-store records faulted in from the fabric peer.", "counter", cs.RemoteLoads},
		{"awamd_cache_remote_misses_total", "Records the fabric peer was asked for but did not hold.", "counter", cs.RemoteMisses},
		{"awamd_cache_remote_puts_total", "Records the fabric peer accepted upstream.", "counter", cs.RemotePuts},
		{"awamd_cache_remote_round_trips_total", "Fabric protocol round trips attempted.", "counter", cs.RemoteRoundTrips},
		{"awamd_cache_remote_errors_total", "Failed fabric exchanges (degraded to local misses).", "counter", cs.RemoteErrors},
		{"awamd_cache_remote_breaker_opens_total", "Fabric circuit-breaker open events.", "counter", cs.BreakerOpens},
		{"awamd_cache_remote_degraded", "1 while the fabric breaker is open (serving local tiers only).", "gauge", boolGauge(cs.Degraded)},
		{"awamd_store_requests_total{op=\"has\"}", "Fabric protocol requests served.", "counter", s.storeHas.Load()},
		{"awamd_store_requests_total{op=\"get\"}", "", "", s.storeGet.Load()},
		{"awamd_store_requests_total{op=\"put\"}", "", "", s.storePut.Load()},
		{"awamd_store_records_served_total", "Records served to fabric peers.", "counter", s.recordsServed.Load()},
		{"awamd_store_records_stored_total", "Records accepted from fabric peers.", "counter", s.recordsStored.Load()},
		{"awamd_cache_entries", "Summary-store resident records.", "gauge", int64(cs.Entries)},
		{"awamd_cache_bytes", "Summary-store resident bytes.", "gauge", cs.Bytes},
	} {
		if m.help != "" {
			base := m.name
			if j := strings.IndexByte(base, '{'); j >= 0 {
				base = base[:j]
			}
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", base, m.help, base, m.typ)
		}
		fmt.Fprintf(w, "%s %d\n", m.name, m.value)
	}
}
