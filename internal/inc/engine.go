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

// Engine runs incremental analyses against a summary store. Its state
// is the store and the records it keeps decoded, with the interner of
// its last analysis (recordCache), both
// safe for concurrent use, so one engine can serve many modules (the
// daemon shares one across requests). The engine sees only the composed cache.ChunkStore —
// whether a record came from memory, disk or a fabric peer is the
// store's business, and results are byte-identical regardless.
type Engine struct {
	store cache.ChunkStore
	recs  *recordCache
}

// NewEngine returns an engine over store; a nil store gets a private
// in-memory store with the default budget.
func NewEngine(store cache.ChunkStore) *Engine {
	if store == nil {
		store, _ = cache.New() // memory-only construction cannot fail
	}
	return &Engine{store: store, recs: newRecordCache(store)}
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

	eng *Engine
}

// StoredSummary returns the value KeepSummary stored for predicate fn
// with the engine, when fn's component has the fingerprint it had then
// and ents, fn's entries in this result in table order, are the very
// entries it was computed from: the same calling and success patterns,
// compared as the representatives of the analysis' interner. The
// patterns of an analysis that starts from the engine's snapshot of the
// last one (see recordCache) are those of the entries it did not
// change; a caller that adds a calling pattern to a predicate changes
// its entries. A stored value is valid for a result exactly when it is
// a function of the predicate's code, its entries and the analysis
// configuration, which the fingerprint covers.
func (r *Result) StoredSummary(fn term.Functor, ents []*core.Entry) (any, bool) {
	fp, ok := r.fingerprint(fn)
	if !ok {
		return nil, false
	}
	return r.eng.recs.summary(r.Tab, fp, fn, ents)
}

// KeepSummary stores v, which holds size bytes, as fn's summary,
// computed from ents, fn's entries in this result in table order (see
// StoredSummary). It replaces the summary fn had stored. The store
// charges v's size and the patterns it keeps to its memory budget.
func (r *Result) KeepSummary(fn term.Functor, ents []*core.Entry, v any, size int64) {
	if fp, ok := r.fingerprint(fn); ok {
		r.eng.recs.keepSummary(r.Tab, fp, fn, entryPatterns(ents), v, size)
	}
}

func (r *Result) fingerprint(fn term.Functor) (cache.Fingerprint, bool) {
	i, ok := r.Plan.PredSCC[fn]
	if !ok {
		return "", false
	}
	return cache.Fingerprint(r.Plan.Fingerprints[i]), true
}

// entryPatterns lists each entry's calling and success pattern.
func entryPatterns(ents []*core.Entry) []*domain.Pattern {
	out := make([]*domain.Pattern, 0, 2*len(ents))
	for _, e := range ents {
		out = append(out, e.CP, e.Succ)
	}
	return out
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
	plan := c.ForwardPlan(cfg)
	before := e.store.Stats()
	served := e.loadWarm(mod.Tab, plan)
	warm := &warmTable{}
	cfg.Warm = nil
	if len(served) > 0 { // cold runs skip warm probes entirely
		cfg.Warm = warm
	}

	an := core.NewWith(mod, cfg)
	in, prev, texts := e.recs.start(mod.Tab)
	if in != nil {
		an.StartFrom(in)
	}
	cached, interned := warm.seed(an.Interner(), served, prev)
	e.recs.count(interned)
	res, err := an.AnalyzeAllContext(ctx)
	if err != nil {
		return nil, err
	}
	res.Texts = texts
	written := e.storeRecords(plan, mod.Tab, an.Interner(), res, cached)
	comps := make(map[cache.Fingerprint]*cachedSCC, len(cached)+len(written))
	for _, recs := range []map[int]*cachedSCC{cached, written} {
		for i, c := range recs {
			comps[cache.Fingerprint(plan.Fingerprints[i])] = c
		}
	}
	e.recs.keep(mod.Tab, an.Interner(), comps, texts)
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
	return &Result{Result: res, Plan: plan, WarmSCCs: len(cached), Store: after, eng: e}, nil
}

// loadWarm probes the store for every component, bottom-up. A component
// is served only when its record is present and well-formed AND all its
// callee components are served too: a seeded entry's finalize trace
// consults callee patterns that are neither explored nor in the
// fixpoint table, so their values must come from seeds as well — seeding
// above a missing cone would present under-approximate summaries.
// (Fingerprint matching already guarantees the cone is *unchanged*;
// this gate guarantees it is *available*.) Returns the served
// components in plan order.
func (e *Engine) loadWarm(tab *term.Tab, plan *Plan) []servedSCC {
	if p, ok := e.store.(prefetcher); ok {
		fps := make([]cache.Fingerprint, len(plan.Fingerprints))
		for i, fp := range plan.Fingerprints {
			fps[i] = cache.Fingerprint(fp)
		}
		p.Prefetch(fps)
	}
	var out []servedSCC
	served := make([]bool, len(plan.SCCs))
	memo := &decodeMemo{}
	// One atom map per private table the load meets: one, unless the
	// record cache is dropped while the load runs.
	var maps []*atomMap
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
		fp := cache.Fingerprint(plan.Fingerprints[i])
		data, ok := e.store.Get(fp)
		if !ok {
			continue
		}
		d := e.recs.get(fp, data, memo)
		if d == nil {
			continue // malformed: treated as a miss; the record is rewritten after the run
		}
		var m *atomMap
		for _, am := range maps {
			if am.from == d.tab {
				m = am
			}
		}
		if m == nil {
			m = &atomMap{from: d.tab, to: tab}
			maps = append(maps, m)
		}
		m.cover(d.atoms)
		valid := true
		for _, re := range d.entries {
			fn := re.CP.Fn
			fn.Name = m.atoms[fn.Name]
			if j, ok := plan.PredSCC[fn]; !ok || j != i {
				valid = false // foreign predicate: corruption or a hash collision
				break
			}
		}
		if !valid {
			continue
		}
		served[i] = true
		out = append(out, servedSCC{scc: i, fp: fp, rec: d, atoms: m})
	}
	return out
}

// storeRecords writes this run's converged summaries back, one record
// per component that was reached. Calling patterns a served record
// carried but this run never consulted are merged in, so a record never
// forgets summaries just because the current callers take other paths.
// Byte-identical records are not re-Put. It returns the records it
// wrote by component, with the IDs their patterns have in in, so the
// snapshot can serve them to the next analysis without interning them.
func (e *Engine) storeRecords(plan *Plan, tab *term.Tab, in *domain.Interner, res *core.Result, cached map[int]*cachedSCC) map[int]*cachedSCC {
	written := make(map[int]*cachedSCC)
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
		rec := &cachedSCC{entries: make([]warmEntry, len(ents))}
		for k, en := range ents {
			rec.entries[k] = warmEntry{cp: en.ID, succ: en.SuccID(), deps: en.ConsultIDs}
		}
		if c != nil {
			seen := make(map[domain.PatternID]bool, len(ents))
			for _, en := range ents {
				seen[en.ID] = true
			}
			for _, we := range c.entries {
				if seen[we.cp] {
					continue
				}
				deps := make([]*domain.Pattern, len(we.deps))
				for j, dep := range we.deps {
					deps[j] = in.Pattern(dep)
				}
				ents = append(ents, &core.Entry{CP: in.Pattern(we.cp), Succ: in.Pattern(we.succ), Consults: deps})
				rec.entries = append(rec.entries, we)
			}
		}
		data := encodeRecord(tab, ents, res.Texts)
		if c != nil && bytes.Equal(c.raw, data) {
			continue
		}
		e.store.Put(cache.Fingerprint(plan.Fingerprints[i]), data)
		rec.raw = data
		written[i] = rec
	}
	return written
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
	return NewCondensation(mod).ForwardPlan(cfg)
}

// ForwardPlan fingerprints c the way the forward engine does under
// cfg's effective configuration.
func (c *Condensation) ForwardPlan(cfg core.Config) *Plan {
	return c.Fingerprint(fpFormat, configContext(cfg), specSalt(cfg), nil)
}
