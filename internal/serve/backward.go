package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"time"

	"awam"
	"awam/api"
)

type (
	backwardRequest  = api.BackwardRequest
	backwardResponse = api.BackwardResponse
)

// handleBackward serves POST /v1/backward: a demand query over the
// posted source. It mirrors /v1/analyze — body cap, per-request
// deadline, step-budget clamp, worker semaphore, singleflight over
// identical concurrent queries — and runs against the daemon's shared
// summary store, so a clean repeat query re-executes nothing.
func (s *Server) handleBackward(w http.ResponseWriter, r *http.Request) {
	var req backwardRequest
	if !s.readRequest(w, r, func(data []byte) error { return decodeBackward(data, &req) }) {
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

	resp, err := s.backward(ctx, &req)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.requestsOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// backwardFlightKey addresses identical demand queries: same source (by
// its digest), same goals, same result-affecting options. The timeout
// is excluded — it bounds the wait, not the answer.
func backwardFlightKey(req *backwardRequest, src source) string {
	h := sha256.New()
	fmt.Fprintf(h, "bwd steps=%d depth=%d goals=%s\n",
		req.MaxSteps, req.Depth, strings.Join(req.Goals, ","))
	h.Write(src.digest[:])
	return hex.EncodeToString(h.Sum(nil))
}

// backward coalesces identical concurrent queries onto one analysis and
// runs the winner under the worker semaphore.
func (s *Server) backward(ctx context.Context, req *backwardRequest) (*backwardResponse, error) {
	src := newSource(req.Source)
	key := backwardFlightKey(req, src)
	s.mu.Lock()
	if f, ok := s.bwdFlights[key]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			s.backwardsDup.Add(1)
			dup := *f.resp
			dup.Coalesced = true
			return &dup, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
		}
	}
	f := &bwdFlight{done: make(chan struct{})}
	s.bwdFlights[key] = f
	s.mu.Unlock()

	f.resp, f.err = s.runBackward(ctx, req, src)
	s.mu.Lock()
	delete(s.bwdFlights, key)
	s.mu.Unlock()
	close(f.done)
	return f.resp, f.err
}

func (s *Server) runBackward(ctx context.Context, req *backwardRequest, src source) (*backwardResponse, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	opts := []awam.BackwardOption{awam.WithBackwardStore(s.cache)}
	for _, g := range req.Goals {
		opts = append(opts, awam.WithGoal(g))
	}
	if req.MaxSteps > 0 {
		opts = append(opts, awam.WithBackwardMaxSteps(req.MaxSteps))
	}
	if req.Depth > 0 {
		opts = append(opts, awam.WithBackwardDepth(req.Depth))
	}
	start := time.Now()
	b, err := s.doBackward(ctx, src, opts...)
	if err != nil {
		return nil, err
	}
	s.backwardsRun.Add(1)

	resp := &backwardResponse{
		Demands:   make(map[string]awam.Demand),
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	for _, d := range b.Demands() {
		resp.Demands[d.Pred] = d
	}
	st := b.Stats()
	s.backwardSteps.Add(st.Steps)
	s.backwardVisited.Add(int64(st.VisitedSCCs))
	s.backwardReused.Add(int64(st.ReusedSCCs))
	resp.Stats = api.BackwardStats{
		Steps: st.Steps, Iterations: st.Iterations,
		VisitedSCCs: st.VisitedSCCs, TotalSCCs: st.TotalSCCs,
		ReusedSCCs: st.ReusedSCCs, ExecutedSCCs: st.ExecutedSCCs,
		CondenseMS: st.CondenseMS, ForwardMS: st.ForwardMS, SolveMS: st.SolveMS,
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

func (s *Server) doBackward(ctx context.Context, src source, opts ...awam.BackwardOption) (*awam.BackwardAnalysis, error) {
	if s.cfg.Backward != nil {
		return s.cfg.Backward(ctx, src.text, opts...)
	}
	sys, err := s.programs.load(ctx, src)
	if err != nil {
		return nil, err
	}
	return sys.AnalyzeBackwardContext(ctx, opts...)
}
