// Package api declares the request and response types of the awamd
// analysis service, importable by clients. The daemon serves them only
// under the versioned prefix /v1:
//
//	POST /v1/analyze    AnalyzeRequest   -> AnalyzeResponse
//	POST /v1/backward   BackwardRequest  -> BackwardResponse
//	POST /v1/optimize   OptimizeRequest  -> OptimizeResponse
//	POST /v1/store/has  StoreHasRequest  -> StoreHasResponse
//	POST /v1/store/get  StoreGetRequest  -> StoreGetResponse
//	POST /v1/store/put  StorePutRequest  -> StorePutResponse
//	GET  /v1/healthz    -> {"status":"ok"}
//	GET  /v1/metrics    -> Prometheus text exposition
//
// The /v1/store routes are the summary-fabric protocol: batched
// content-addressed record exchange between daemons (a peer's store
// configured with awam.WithRemote speaks it as a client). Batches are
// capped at MaxStoreBatch entries; larger requests fail with a
// batch_too_large ErrorBody.
//
// Every non-2xx response carries an ErrorBody.
package api

import "awam"

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Source is the Prolog program text (required).
	Source string `json:"source"`
	// TimeoutMS bounds the analysis wall time; 0 selects the server
	// default, larger values are clamped to the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps bounds the abstract instructions executed; 0 means
	// unbounded (up to the server clamp).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Depth overrides the term-depth restriction; 0 keeps the default.
	Depth int `json:"depth,omitempty"`
}

// AnalysisStats are the run statistics of one analysis.
type AnalysisStats struct {
	Exec       int64 `json:"exec"`
	Iterations int   `json:"iterations"`
	TableSize  int   `json:"table_size"`
}

// Incremental is the summary cache's share of one analysis.
type Incremental struct {
	SCCs         int   `json:"sccs"`
	WarmSCCs     int   `json:"warm_sccs"`
	WarmPatterns int64 `json:"warm_patterns"`
	ColdPatterns int64 `json:"cold_patterns"`
}

// Cache is the shared summary store's cumulative state. The remote_*
// fields describe the daemon's own remote tier (zero unless it was
// started as a fabric member pointing at a peer); degraded is true
// while that tier's circuit breaker is open.
type Cache struct {
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Evictions        int64 `json:"evictions"`
	DiskLoads        int64 `json:"disk_loads"`
	RemoteLoads      int64 `json:"remote_loads,omitempty"`
	RemoteMisses     int64 `json:"remote_misses,omitempty"`
	RemotePuts       int64 `json:"remote_puts,omitempty"`
	RemoteRoundTrips int64 `json:"remote_round_trips,omitempty"`
	RemoteErrors     int64 `json:"remote_errors,omitempty"`
	Degraded         bool  `json:"degraded,omitempty"`
	Entries          int   `json:"entries"`
	Bytes            int64 `json:"bytes"`
}

// AnalyzeResponse is the POST /v1/analyze success body.
type AnalyzeResponse struct {
	// Predicates maps "name/arity" to its analysis summary.
	Predicates map[string]awam.Summary `json:"predicates"`
	// Stats are the run statistics of the analysis that produced this
	// result (for coalesced requests: the shared analysis).
	Stats AnalysisStats `json:"stats"`
	// Incremental is the cache's share of this analysis.
	Incremental *Incremental `json:"incremental,omitempty"`
	// Cache is the shared summary cache's cumulative state.
	Cache Cache `json:"cache"`
	// ElapsedMS is the analysis wall time; Coalesced marks responses
	// served by joining an identical in-flight request.
	ElapsedMS int64 `json:"elapsed_ms"`
	Coalesced bool  `json:"coalesced,omitempty"`
}

// BackwardRequest is the POST /v1/backward body: a demand query — for
// each goal predicate and everything it transitively demands, infer the
// weakest call pattern under which success cannot be refuted and every
// builtin is error-free.
type BackwardRequest struct {
	// Source is the Prolog program text (required).
	Source string `json:"source"`
	// Goals are the demand entry points as "name/arity" indicators;
	// empty roots the query at main/0 when the program defines it, else
	// at every source predicate.
	Goals []string `json:"goals,omitempty"`
	// TimeoutMS bounds the analysis wall time; 0 selects the server
	// default, larger values are clamped to the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSteps bounds the backward transfer steps; 0 means the engine
	// default (up to the server clamp).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Depth overrides the widening depth bound; 0 keeps the default.
	Depth int `json:"depth,omitempty"`
}

// BackwardStats are the run statistics of one backward analysis.
type BackwardStats struct {
	Steps        int64 `json:"steps"`
	Iterations   int   `json:"iterations"`
	VisitedSCCs  int   `json:"visited_sccs"`
	TotalSCCs    int   `json:"total_sccs"`
	ReusedSCCs   int   `json:"reused_sccs"`
	ExecutedSCCs int   `json:"executed_sccs"`
	CondenseMS   int64 `json:"condense_ms"`
	ForwardMS    int64 `json:"forward_ms"`
	SolveMS      int64 `json:"solve_ms"`
}

// BackwardResponse is the POST /v1/backward success body.
type BackwardResponse struct {
	// Demands maps each visited "name/arity" to its weakest demand.
	Demands map[string]awam.Demand `json:"demands"`
	// Stats are the run statistics (for coalesced requests: the shared
	// analysis).
	Stats BackwardStats `json:"stats"`
	// Cache is the shared summary cache's cumulative state; backward
	// records share its tiers under their own format salt.
	Cache Cache `json:"cache"`
	// ElapsedMS is the analysis wall time; Coalesced marks responses
	// served by joining an identical in-flight request.
	ElapsedMS int64 `json:"elapsed_ms"`
	Coalesced bool  `json:"coalesced,omitempty"`
}

// OptimizeRequest is the POST /v1/optimize body: analyze Source, then
// run the differentially-gated optimizer pipeline over it.
type OptimizeRequest struct {
	// Source is the Prolog program text (required).
	Source string `json:"source"`
	// Passes selects and orders the optimizer passes; empty runs every
	// registered pass in canonical order.
	Passes []string `json:"passes,omitempty"`
	// GateGoals adds goals to the differential gate (main/0 is gated
	// automatically when the program defines it).
	GateGoals []string `json:"gate_goals,omitempty"`
	// TimeoutMS bounds the analysis wall time, as in AnalyzeRequest.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MeasureRuns is the number of timed runs per speedup measurement;
	// 0 selects the server default. Values above MaxMeasureRuns fail
	// with a bad_request ErrorBody.
	MeasureRuns int `json:"measure_runs,omitempty"`
	// Disasm requests the optimized module's code listing in the
	// response.
	Disasm bool `json:"disasm,omitempty"`
}

// MaxMeasureRuns caps OptimizeRequest.MeasureRuns: the measurement
// runs the program concretely that many times on each machine.
const MaxMeasureRuns = 100

// OptimizeResponse is the POST /v1/optimize success body.
type OptimizeResponse struct {
	// Report is the optimizer's account of what changed: per-pass
	// rewrite counts and instruction/clause deltas, the gate goals, and
	// the measured machine-runtime speedup.
	Report *awam.OptimizeReport `json:"report"`
	// Disasm is the optimized module's code listing, when requested.
	Disasm string `json:"disasm,omitempty"`
	// ElapsedMS is the combined analyze+optimize wall time.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// MaxStoreBatch is the most fingerprints (or records) one store
// round trip may carry; longer batches fail with batch_too_large.
const MaxStoreBatch = 256

// StoreHasRequest is the POST /v1/store/has body: which of these
// records does the daemon hold locally?
type StoreHasRequest struct {
	// Fingerprints are content addresses (lowercase hex, as produced by
	// the incremental engine's component hashing).
	Fingerprints []string `json:"fingerprints"`
}

// StoreHasResponse answers a StoreHasRequest positionally: Present[i]
// reports Fingerprints[i]. Malformed fingerprints are reported absent.
type StoreHasResponse struct {
	Present []bool `json:"present"`
}

// StoreGetRequest is the POST /v1/store/get body: fetch a batch of
// records by fingerprint.
type StoreGetRequest struct {
	Fingerprints []string `json:"fingerprints"`
}

// StoreRecord is one content-addressed record on the wire. Data
// travels base64-encoded (encoding/json's []byte convention).
type StoreRecord struct {
	Fingerprint string `json:"fingerprint"`
	Data        []byte `json:"data"`
}

// StoreGetResponse carries the subset of requested records the daemon
// holds; records it lacks are simply absent (a fetch is never an
// error).
type StoreGetResponse struct {
	Records []StoreRecord `json:"records"`
}

// StorePutRequest is the POST /v1/store/put body: push a batch of
// records into the daemon's local tiers.
type StorePutRequest struct {
	Records []StoreRecord `json:"records"`
}

// StorePutResponse reports how many pushed records were accepted
// (malformed fingerprints and empty or oversized records are skipped,
// not failed).
type StorePutResponse struct {
	Stored int `json:"stored"`
}

// Error is the payload of an ErrorBody.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is every non-2xx response: {"error":{"code","message"}}.
type ErrorBody struct {
	Error Error `json:"error"`
}
