package awam

import (
	"fmt"
	"time"

	"awam/internal/cache"
	"awam/internal/core"
	"awam/internal/inc"
)

// Store is a handle on the summary fabric: a tiered content-addressed
// store of per-component analysis summaries shared across analyses —
// and, with a disk tier or a remote peer, across processes and
// machines. Build one with NewStore and install it with
// WithSummaryCache: the analysis then condenses the program's call
// graph, fingerprints every strongly connected component by its
// compiled code and transitive callees, and reuses stored summaries for
// components whose fingerprint matches — after an edit, only the dirty
// cone is re-analyzed, and results are byte-identical to an uncached
// worklist analysis no matter which tier served a record.
//
// The batch record methods (Has, GetRecords, PutRecords) are the
// server side of the fabric protocol: awamd serves them on
// /v1/store/{has,get,put} so peer daemons' remote tiers can share this
// store. They operate on the local tiers only — a fleet of daemons
// pointing at each other can never chase records in a cycle.
//
// Stores are safe for concurrent use; the daemon shares one across all
// requests. Only this package implements Store.
type Store interface {
	// Stats returns the store's cumulative counters and occupancy.
	Stats() CacheStats
	// Has reports which of the given fingerprints the local tiers hold,
	// positionally. Malformed fingerprints are reported absent.
	Has(fingerprints []string) []bool
	// GetRecords returns the records stored under the given fingerprints
	// from the local tiers, positionally; absent (or malformed) entries
	// are nil. The returned bytes are shared — callers must not mutate
	// them.
	GetRecords(fingerprints []string) [][]byte
	// PutRecords stores records under the given fingerprints in the
	// local tiers and reports how many were accepted (malformed
	// fingerprints and empty records are skipped; lengths must match).
	PutRecords(fingerprints []string, records [][]byte) int
	// Flush pushes records buffered for the fabric peer upstream now.
	// Analyses flush on completion; Flush is for shutdown paths. A no-op
	// without a remote tier.
	Flush()

	// engine seals the interface: only this package's tiered store can
	// implement it, so the incremental analysis always runs against the
	// composed tier stack.
	engine() *inc.Engine
}

// StoreOption configures NewStore.
type StoreOption func(*storeCfg)

type storeCfg struct {
	opts []cache.Option
}

// WithMemoryBudget bounds the in-memory tier to budgetBytes of records
// (<= 0 selects the default, 64 MiB).
func WithMemoryBudget(budgetBytes int64) StoreOption {
	return func(c *storeCfg) { c.opts = append(c.opts, cache.WithMemoryBudget(budgetBytes)) }
}

// WithDiskDir enables the disk tier: records are written to dir as
// fingerprint-named files, survive process restarts, and re-serve
// records evicted from memory. An empty dir is a no-op.
func WithDiskDir(dir string) StoreOption {
	return func(c *storeCfg) {
		if dir != "" {
			c.opts = append(c.opts, cache.WithDir(dir))
		}
	}
}

// WithRemote enables the remote tier: records missing from the local
// tiers are fetched from the awamd daemon at baseURL (e.g.
// "http://10.0.0.7:8347") over the batched /v1/store protocol, and
// locally computed records are pushed back, so every store sharing a
// peer shares one summary universe. The tier is failure-proof by
// construction: per-batch deadlines, bounded jittered retries, and a
// circuit breaker degrade it to the local tiers on outage — a dead or
// corrupt peer costs cache misses, never errors or changed results.
func WithRemote(baseURL string, opts ...RemoteOption) StoreOption {
	return func(c *storeCfg) {
		if baseURL == "" {
			return
		}
		ropts := make([]cache.RemoteOption, len(opts))
		for i, o := range opts {
			ropts[i] = o.opt
		}
		c.opts = append(c.opts, cache.WithRemoteURL(baseURL, ropts...))
	}
}

// RemoteOption tunes the remote tier of WithRemote.
type RemoteOption struct{ opt cache.RemoteOption }

// WithRemoteTimeout sets the per-batch round-trip deadline (default 2s).
func WithRemoteTimeout(d time.Duration) RemoteOption {
	return RemoteOption{cache.WithRemoteTimeout(d)}
}

// WithRemoteRetries sets how many times a failed round trip is retried
// with jittered exponential backoff (default 2; transport errors and
// 5xx responses retry, other failures do not).
func WithRemoteRetries(n int) RemoteOption {
	return RemoteOption{cache.WithRemoteRetries(n)}
}

// WithRemoteBreaker tunes the circuit breaker: threshold consecutive
// failed round trips open it for cooldown, during which every remote
// operation is an immediate local miss (defaults: 3 failures, 10s).
func WithRemoteBreaker(threshold int, cooldown time.Duration) RemoteOption {
	return RemoteOption{cache.WithRemoteBreaker(threshold, cooldown)}
}

// WithRemoteMaxBatch bounds fingerprints or records per protocol round
// trip (default 256, the server-side cap).
func WithRemoteMaxBatch(n int) RemoteOption {
	return RemoteOption{cache.WithRemoteMaxBatch(n)}
}

// NewStore builds a summary store from options: an in-memory tier
// (always), plus optional disk (WithDiskDir) and remote (WithRemote)
// tiers. With no options it is a memory-only cache with the default
// budget.
func NewStore(opts ...StoreOption) (Store, error) {
	var c storeCfg
	for _, o := range opts {
		o(&c)
	}
	st, err := cache.New(c.opts...)
	if err != nil {
		return nil, err
	}
	return &SummaryCache{store: st, eng: inc.NewEngine(st)}, nil
}

// SummaryCache is the tiered store behind the Store interface. It
// remains exported for compatibility with code written against the
// PR 5 API; new code should hold the Store interface.
type SummaryCache struct {
	store *cache.Store
	eng   *inc.Engine
}

var _ Store = (*SummaryCache)(nil)

// CacheStats is a point-in-time snapshot of summary-store traffic.
type CacheStats struct {
	// Hits and Misses count record probes (one probe per program
	// component per analysis, any tier). Evictions counts records
	// dropped from memory by the byte budget; persisted copies survive
	// and reload.
	Hits, Misses, Evictions int64
	// DiskLoads counts records faulted in from the cache directory;
	// DiskErrors counts persistence failures (the cache degrades to
	// memory-only rather than failing analyses).
	DiskLoads, DiskErrors int64
	// Remote-tier (summary fabric) traffic: records faulted in from the
	// peer, records the peer was asked for but did not hold, records the
	// peer accepted upstream, protocol round trips, failed exchanges
	// (outages, timeouts, corrupt payloads — degraded to misses),
	// upstream pushes abandoned, and circuit-breaker opens. Degraded is
	// true while the breaker is open and the store serves from local
	// tiers only.
	RemoteLoads, RemoteMisses, RemotePuts int64
	RemoteRoundTrips, RemoteErrors        int64
	RemoteDropped, BreakerOpens           int64
	Degraded                              bool
	// Entries and Bytes describe current in-memory occupancy.
	Entries int
	Bytes   int64
}

// Stats returns the cache's cumulative counters and occupancy.
func (sc *SummaryCache) Stats() CacheStats {
	st := sc.store.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		DiskLoads: st.DiskLoads, DiskErrors: st.DiskErrors,
		RemoteLoads: st.RemoteLoads, RemoteMisses: st.RemoteMisses,
		RemotePuts: st.RemotePuts, RemoteRoundTrips: st.RemoteRoundTrips,
		RemoteErrors: st.RemoteErrors, RemoteDropped: st.RemoteDropped,
		BreakerOpens: st.BreakerOpens, Degraded: st.Degraded,
		Entries: st.Entries, Bytes: st.Bytes,
	}
}

// Has implements Store over the local tiers.
func (sc *SummaryCache) Has(fingerprints []string) []bool {
	out := make([]bool, len(fingerprints))
	for i, fp := range fingerprints {
		out[i] = sc.store.HasLocal(cache.Fingerprint(fp))
	}
	return out
}

// GetRecords implements Store over the local tiers.
func (sc *SummaryCache) GetRecords(fingerprints []string) [][]byte {
	out := make([][]byte, len(fingerprints))
	for i, fp := range fingerprints {
		if data, ok := sc.store.GetLocal(cache.Fingerprint(fp)); ok {
			out[i] = data
		}
	}
	return out
}

// PutRecords implements Store over the local tiers. records[i] is
// stored under fingerprints[i]; mismatched lengths store the common
// prefix.
func (sc *SummaryCache) PutRecords(fingerprints []string, records [][]byte) int {
	n := len(fingerprints)
	if len(records) < n {
		n = len(records)
	}
	stored := 0
	for i := 0; i < n; i++ {
		fp := cache.Fingerprint(fingerprints[i])
		if !fp.Valid() || len(records[i]) == 0 {
			continue
		}
		sc.store.PutLocal(fp, records[i])
		stored++
	}
	return stored
}

// Flush pushes records buffered for the fabric peer upstream now.
func (sc *SummaryCache) Flush() { sc.store.Flush() }

// engine seals Store and hands AnalyzeContext the incremental engine.
func (sc *SummaryCache) engine() *inc.Engine {
	if sc == nil {
		return nil
	}
	return sc.eng
}

// WithSummaryCache runs the analysis through the incremental engine
// backed by s (a Store from NewStore, or a SummaryCache from the
// deprecated constructor). The incremental engine is defined over the
// worklist fixpoint: combining this option with an explicit
// WithStrategy(Naive) fails with ErrBadOption, as does WithEntry (the
// cache keys whole-program analyses). A nil s is a no-op.
func WithSummaryCache(s Store) AnalyzeOption {
	return func(c *analyzeCfg) { c.cache = s }
}

// Incremental describes the cache's share of one analysis run.
type Incremental struct {
	// SCCs is the number of call-graph components in the analyzed
	// program; WarmSCCs of them were served entirely from the cache.
	SCCs, WarmSCCs int
	// WarmPatterns is the number of calling patterns seeded from cached
	// summaries instead of being explored; ColdPatterns were probed but
	// not cached.
	WarmPatterns, ColdPatterns int64
	// HashedFingerprints is the number of component fingerprints the
	// analysis hashed; the others came from the System's memo, which a
	// derived System starts from its base's (Derive).
	HashedFingerprints int
	// StoredSummaries and ComputedSummaries count the Summary calls so
	// far that reused a summary kept with the store and those that
	// computed one.
	StoredSummaries, ComputedSummaries int64
}

// Incremental returns the cache accounting of this analysis, and ok =
// false when the analysis ran without WithSummaryCache.
func (a *Analysis) Incremental() (Incremental, bool) {
	if a.inc == nil {
		return Incremental{}, false
	}
	return Incremental{
		SCCs:               len(a.inc.Plan.SCCs),
		WarmSCCs:           a.inc.WarmSCCs,
		WarmPatterns:       a.inc.Metrics.WarmHits,
		ColdPatterns:       a.inc.Metrics.WarmMisses,
		HashedFingerprints: a.inc.Plan.Hashed,
		StoredSummaries:    a.stored.Load(),
		ComputedSummaries:  a.computed.Load(),
	}, true
}

// validateCacheOptions rejects option combinations the incremental
// engine cannot honor; called by AnalyzeContext when a cache is
// installed. An unconfigured strategy is silently upgraded to the
// worklist; only an explicit conflicting choice is an error.
func (c *analyzeCfg) validateCacheOptions() error {
	if c.strategySet && c.cfg.Strategy != core.StrategyWorklist {
		return fmt.Errorf("%w: summary cache requires the worklist strategy", ErrBadOption)
	}
	if c.entry != "" {
		return fmt.Errorf("%w: summary cache cannot be combined with WithEntry", ErrBadOption)
	}
	return nil
}
