package inc

import (
	"bytes"
	"context"
	"fmt"

	"awam/internal/cache"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
	"awam/internal/wam"
)

// Engine runs incremental analyses against a summary store. It is
// stateless apart from the store, so one engine can serve many modules
// (the daemon shares one across requests); the store is safe for
// concurrent use. The engine sees only the composed cache.ChunkStore —
// whether a record came from memory, disk or a fabric peer is the
// store's business, and results are byte-identical regardless.
type Engine struct {
	store cache.ChunkStore
}

// NewEngine returns an engine over store; a nil store gets a private
// in-memory store with the default budget.
func NewEngine(store cache.ChunkStore) *Engine {
	if store == nil {
		store, _ = cache.New() // memory-only construction cannot fail
	}
	return &Engine{store: store}
}

// Store exposes the engine's summary store (for stats and tests).
func (e *Engine) Store() cache.ChunkStore { return e.store }

// prefetcher is the optional batch-fault hook of tiered stores: given
// the run's full fingerprint set up front, a fabric-backed store can
// fetch every remotely-cached component in a few batched round trips
// instead of one per Get.
type prefetcher interface {
	Prefetch(fps []cache.Fingerprint)
}

// flusher is the optional end-of-run hook that ships this run's novel
// records to the fabric peer in batches.
type flusher interface {
	Flush()
}

// Result is an incremental analysis outcome: the core result (whose
// Entries/Marshal are byte-identical to a from-scratch worklist run)
// plus the condensation and cache accounting of this run.
type Result struct {
	*core.Result
	// Plan is the module's condensation, fingerprinted under this run's
	// configuration salt.
	Plan *Plan
	// WarmSCCs counts components served from the store — record present,
	// well-formed, and entire callee cone also served — out of
	// len(Plan.SCCs) total. Per-pattern reuse is Metrics.WarmHits.
	WarmSCCs int
	// Store is the summary store's state after the run.
	Store cache.Stats
}

// configContext is the configuration salt hashed into fingerprints:
// cached summaries depend on the depth bound and on indexing-aware
// clause selection, so records produced under different settings must
// live at different addresses. Defaults are resolved the way
// core.NewWith resolves them, so Config{} and an explicit
// DefaultConfig() share records.
func configContext(cfg core.Config) string {
	depth := cfg.Depth
	if depth == 0 {
		depth = 4
	}
	ctx := fmt.Sprintf("depth=%d indexing=%t", depth, cfg.Indexing)
	if cfg.Spec != nil {
		// Specialized runs are salted with the specialization version and
		// options here, and with each component's fusion set by
		// specSalt: results are byte-identical to plain-stream runs (Spec
		// nil) by construction, but a record produced by one engine
		// generation must never satisfy a lookup from another — a
		// specializer bug would otherwise be masked by cached summaries
		// from before (or after) the bug.
		ctx += " " + cfg.Spec.Salt()
	}
	return ctx
}

// specSalt is the per-component part of a specialized run's salt: the
// component's own stream generation, never a whole-program value, so
// adding a predicate leaves every unrelated component's address alone.
// Plain-stream runs have none.
func specSalt(cfg core.Config) func(*SCC) string {
	if cfg.Spec == nil {
		return nil
	}
	return func(scc *SCC) string { return cfg.Spec.CompSalt(scc.Members) }
}

// AnalyzeAll analyzes mod the way core's AnalyzeAll does (main/0 when
// present, else an all-any pattern per predicate), reusing cached
// summaries for every component whose fingerprint — covering its code,
// configuration and transitive callees — matches a stored record, and
// refreshing the store with this run's summaries. The incremental
// engine always runs the worklist strategy (warm seeding is defined for
// it); cfg.Strategy and cfg.Warm are overwritten.
func (e *Engine) AnalyzeAll(ctx context.Context, mod *wam.Module, cfg core.Config) (*Result, error) {
	return e.AnalyzeCondensed(ctx, NewCondensation(mod), cfg)
}

// AnalyzeCondensed is AnalyzeAll over a prebuilt condensation of the
// module c.Mod, so a caller that also specializes the module or runs
// the backward engine over it condenses it only once. Only the
// fingerprinting pass, salted with cfg, is done here.
func (e *Engine) AnalyzeCondensed(ctx context.Context, c *Condensation, cfg core.Config) (*Result, error) {
	cfg.Strategy = core.StrategyWorklist
	mod := c.Mod
	plan := c.Fingerprint(fpFormat, configContext(cfg), specSalt(cfg), nil)
	before := e.store.Stats()
	warm, cached := e.loadWarm(mod.Tab, plan)
	cfg.Warm = nil
	if warm != nil { // assigning a typed nil would install a non-nil interface
		cfg.Warm = warm
	}

	an := core.NewWith(mod, cfg)
	res, err := an.AnalyzeAllContext(ctx)
	if err != nil {
		return nil, err
	}
	e.storeRecords(plan, mod.Tab, res, cached)
	if f, ok := e.store.(flusher); ok {
		f.Flush()
	}

	after := e.store.Stats()
	if res.Metrics != nil {
		res.Metrics.CacheHits = after.Hits - before.Hits
		res.Metrics.CacheMisses = after.Misses - before.Misses
		res.Metrics.CacheEvictions = after.Evictions - before.Evictions
		res.Metrics.CacheBytes = after.Bytes
		res.Metrics.RemoteLoads = after.RemoteLoads - before.RemoteLoads
		res.Metrics.RemoteMisses = after.RemoteMisses - before.RemoteMisses
		res.Metrics.RemotePuts = after.RemotePuts - before.RemotePuts
		res.Metrics.RemoteRoundTrips = after.RemoteRoundTrips - before.RemoteRoundTrips
		res.Metrics.RemoteErrors = after.RemoteErrors - before.RemoteErrors
	}
	return &Result{Result: res, Plan: plan, WarmSCCs: len(cached), Store: after}, nil
}

// warmSeed is one cached converged pattern: success value plus the
// finalize consultation trace that replays its presentation.
type warmSeed struct {
	succ *domain.Pattern
	deps []*domain.Pattern
}

// warmTable implements core.WarmStart over the decoded records. Lookups
// key on the canonical pattern key computed in the request's symbol
// table (record patterns were re-parsed into it), which quotients
// patterns exactly like the engine's interner.
//
// The last Seed result is memoized: the finalize replay always asks
// Seed then Trace for the same (fn, key), and the worklist strategy
// (the only one Warm is defined for) runs single-threaded, so a
// one-entry memo halves the map traffic with no locking.
type warmTable struct {
	seeds map[term.Functor]map[string]*warmSeed

	lastFn   term.Functor
	lastKey  string
	lastSeed *warmSeed
}

func (w *warmTable) lookup(fn term.Functor, key string) *warmSeed {
	if w.lastSeed != nil && w.lastFn == fn && w.lastKey == key {
		return w.lastSeed
	}
	s := w.seeds[fn][key]
	if s != nil {
		w.lastFn, w.lastKey, w.lastSeed = fn, key, s
	}
	return s
}

func (w *warmTable) Seed(fn term.Functor, key string) (*domain.Pattern, bool) {
	s := w.lookup(fn, key)
	if s == nil {
		return nil, false
	}
	return s.succ, true
}

func (w *warmTable) Trace(fn term.Functor, key string) []*domain.Pattern {
	if s := w.lookup(fn, key); s != nil {
		return s.deps
	}
	return nil
}

// cachedSCC retains a served record for the post-run merge: raw bytes
// (to skip redundant Puts) and decoded entries (to keep calling
// patterns this run never touched).
type cachedSCC struct {
	raw     []byte
	entries []RecordEntry
}

// loadWarm probes the store for every component, bottom-up. A component
// is served only when its record is present and well-formed AND all its
// callee components are served too: a seeded entry's finalize trace
// consults callee patterns that are neither explored nor in the
// fixpoint table, so their values must come from seeds as well — seeding
// above a missing cone would present under-approximate summaries.
// (Fingerprint matching already guarantees the cone is *unchanged*;
// this gate guarantees it is *available*.) Returns nil when nothing is
// served, so cold runs skip warm probes entirely.
func (e *Engine) loadWarm(tab *term.Tab, plan *Plan) (*warmTable, map[int]*cachedSCC) {
	if p, ok := e.store.(prefetcher); ok {
		fps := make([]cache.Fingerprint, len(plan.Fingerprints))
		for i, fp := range plan.Fingerprints {
			fps[i] = cache.Fingerprint(fp)
		}
		p.Prefetch(fps)
	}
	cached := make(map[int]*cachedSCC)
	w := &warmTable{seeds: make(map[term.Functor]map[string]*warmSeed)}
	served := make([]bool, len(plan.SCCs))
	depMemo := make(map[string]*domain.Pattern)
	for i, scc := range plan.SCCs {
		coneOK := true
		for _, j := range scc.Callees {
			if !served[j] {
				coneOK = false
				break
			}
		}
		if !coneOK {
			continue
		}
		data, ok := e.store.Get(cache.Fingerprint(plan.Fingerprints[i]))
		if !ok {
			continue
		}
		entries, err := decodeRecord(tab, data, depMemo)
		if err != nil {
			continue // treated as a miss; the record is rewritten after the run
		}
		valid := true
		for _, re := range entries {
			if j, ok := plan.PredSCC[re.CP.Fn]; !ok || j != i {
				valid = false // foreign predicate: corruption or a hash collision
				break
			}
		}
		if !valid {
			continue
		}
		served[i] = true
		cached[i] = &cachedSCC{raw: data, entries: entries}
		for _, re := range entries {
			m := w.seeds[re.CP.Fn]
			if m == nil {
				m = make(map[string]*warmSeed)
				w.seeds[re.CP.Fn] = m
			}
			m[re.CP.Key()] = &warmSeed{succ: re.Succ, deps: re.Deps}
		}
	}
	if len(cached) == 0 {
		return nil, cached
	}
	return w, cached
}

// storeRecords writes this run's converged summaries back, one record
// per component that was reached. Calling patterns a served record
// carried but this run never consulted are merged in, so a record never
// forgets summaries just because the current callers take other paths.
// Byte-identical records are not re-Put.
func (e *Engine) storeRecords(plan *Plan, tab *term.Tab, res *core.Result, cached map[int]*cachedSCC) {
	groups := make([][]*core.Entry, len(plan.SCCs))
	for _, en := range res.Entries {
		if i, ok := plan.PredSCC[en.CP.Fn]; ok {
			groups[i] = append(groups[i], en)
		}
	}
	for i, ents := range groups {
		c := cached[i]
		if len(ents) == 0 {
			continue // component unreached this run; any cached record stands
		}
		if c != nil && res.Metrics != nil && !explored(plan.SCCs[i], res.Metrics.PredRuns) {
			// Served component whose members were never explored: every
			// consulted pattern came from the record's seeds and none of
			// them grew, so re-encoding would reproduce the stored bytes.
			// (A calling pattern absent from the record forces an
			// exploration, so it cannot slip past this check.)
			continue
		}
		if c != nil {
			seen := make(map[string]bool, len(ents))
			for _, en := range ents {
				seen[en.CP.Key()] = true
			}
			for _, re := range c.entries {
				if !seen[re.CP.Key()] {
					ents = append(ents, &core.Entry{CP: re.CP, Succ: re.Succ, Consults: re.Deps})
				}
			}
		}
		data := EncodeRecord(tab, ents)
		if c != nil && bytes.Equal(c.raw, data) {
			continue
		}
		e.store.Put(cache.Fingerprint(plan.Fingerprints[i]), data)
	}
}

// explored reports whether any member of scc was explored this run.
func explored(scc *SCC, runs map[term.Functor]int64) bool {
	for _, fn := range scc.Members {
		if runs[fn] > 0 {
			return true
		}
	}
	return false
}

// Condense is a convenience for tools and tests: the fingerprinted plan
// for mod under cfg's effective configuration. Callers that need only
// the components use NewCondensation, which skips the hashing.
func Condense(mod *wam.Module, cfg core.Config) *Plan {
	return NewCondensation(mod).Fingerprint(fpFormat, configContext(cfg), specSalt(cfg), nil)
}
