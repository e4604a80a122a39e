package core

import (
	"sync"

	"awam/internal/domain"
)

// TableEvent classifies extension-table operations for Tracer.Table.
type TableEvent int

const (
	// TableHit is a lookup that found an existing entry.
	TableHit TableEvent = iota
	// TableMiss is a lookup that found nothing.
	TableMiss
	// TableInsert is a fresh entry insertion (always follows a miss).
	TableInsert
	// TableUpdate is a success-pattern growth (monotone lub-merge).
	TableUpdate
)

// String names the event for trace output.
func (ev TableEvent) String() string {
	switch ev {
	case TableHit:
		return "hit"
	case TableMiss:
		return "miss"
	case TableInsert:
		return "insert"
	case TableUpdate:
		return "update"
	}
	return "table-event?"
}

// Entry is one extension-table record: a calling pattern with its lubbed
// success pattern (nil until some clause succeeds — the paper's "call
// made but no solution recorded").
type Entry struct {
	// ID is the calling pattern's interned identity (domain.Interner);
	// every engine map and table keys on it. Zero (domain.BottomID) on
	// entries built outside an analysis (Unmarshal, baseline).
	ID   domain.PatternID
	CP   *domain.Pattern
	Succ *domain.Pattern
	// succID is Succ's interned identity, kept in lockstep by the merge
	// paths so growth checks are word compares (BottomID while nil).
	succID domain.PatternID
	// exploredIter is the analysis iteration that last explored this
	// calling pattern (repeated encounters within an iteration return
	// the memoized success pattern instead of re-exploring).
	exploredIter int
	// Lookups counts memoized hits; Updates counts success-pattern lubs.
	Lookups int
	Updates int
	// warm marks an entry seeded from a WarmStart cache: its summary is
	// already converged, so the worklist never explores it and a summary
	// growth can never reach it.
	warm bool
	// Consults lists the callee calling patterns this entry consulted
	// during the finalize pass — first occurrences, in discovery order,
	// whether the entry was presented from its exploration record or by
	// running its clauses. The incremental engine caches it as the
	// entry's trace, so a later warm finalize can replay discovery (and
	// keep the presentation byte-identical) without executing the entry's
	// clauses. Populated by every strategy (each presents through
	// finalize).
	Consults []*domain.Pattern
	// finSeen dedups Consults during the finalize pass (first
	// occurrences only); cleared when the pass finishes. A small slice
	// with linear scans beats a per-entry set: consult lists are short,
	// and the replay visits every presented entry on every warm run.
	finSeen []domain.PatternID

	// Parallel-engine state (used only by StrategyParallel). The mutex
	// guards Succ, succID, Updates, deps and the read snapshot; dependency
	// edges live on the callee entry itself — the sharded-table
	// replacement for wlState.dependents — so a worker that grows a
	// summary can snapshot and enqueue dependents without any global lock.
	mu   sync.Mutex
	deps map[domain.PatternID]*Entry
	// readEnts/readVals snapshot the entry's last completed parallel
	// exploration: for each callee consulted, the first summary ID read.
	// An exploration is a deterministic function of the calling pattern
	// and the summaries it reads, so a pop whose every recorded read is
	// still the callee's current summary can skip re-exploration — the
	// rerun would take the identical path and merge identical (idempotent)
	// successes. Written under mu at exploration end; the slices are
	// immutable once published.
	readEnts []*Entry
	readVals []domain.PatternID
	explored bool
	// deferCount bounds how often a popped entry may be rotated to the
	// back of the queue while callees it reads are still queued (the
	// quiesce-callees-first heuristic in runWorker); the cap guarantees
	// progress on dependency cycles.
	deferCount int
	// inQueue dedups work-queue insertions; guarded by the queue lock,
	// not by mu.
	inQueue bool
}

// Key returns the calling pattern's canonical serialization — the
// human-readable boundary (display, serialized summaries, cross-engine
// test comparison). The engine itself keys on ID.
func (e *Entry) Key() string { return e.CP.Key() }

// Warm reports whether the entry was seeded from a WarmStart cache
// instead of being explored (incremental warm starts).
func (e *Entry) Warm() bool { return e.warm }

// The extension table is indexed by interned calling-pattern ID.
// PatternIDs are dense small integers (domain.Interner), so the table is
// an ID-indexed slice: a Get is one bounds check and one load. The paper
// searches "a linear list of (calling-pattern, success-pattern) pairs";
// DESIGN §3.3 records why this departure changes no reported figure.

// DenseTable is the extension table of the sequential strategies (naive
// and worklist) and of the finalize pass's oracle lookups.
type DenseTable struct {
	byID  []*Entry
	order []*Entry
}

// NewDenseTable returns an empty dense table.
func NewDenseTable() *DenseTable { return &DenseTable{} }

// Get returns the entry for id, or nil.
func (t *DenseTable) Get(id domain.PatternID) *Entry {
	if int(id) < len(t.byID) {
		return t.byID[id]
	}
	return nil
}

// Add inserts a fresh entry (its ID must not be present).
func (t *DenseTable) Add(e *Entry) {
	for int(e.ID) >= len(t.byID) {
		t.byID = append(t.byID, nil)
	}
	t.byID[e.ID] = e
	t.order = append(t.order, e)
}

// Entries returns entries in insertion order.
func (t *DenseTable) Entries() []*Entry { return t.order }

// Len returns the entry count.
func (t *DenseTable) Len() int { return len(t.order) }

// numShards is the stripe count of DenseShardedTable; a power of two so
// the shard pick is a mask. 64 stripes keep contention negligible for
// any plausible worker count while staying cheap to allocate per
// analysis.
const (
	shardBits = 6
	numShards = 1 << shardBits
)

type denseShard struct {
	mu    sync.Mutex
	slots []*Entry
}

// DenseShardedTable is the lock-striped extension table behind
// StrategyParallel: an ID stripes by its low bits (shard = id & 63) and
// indexes the shard's slot slice by the high bits (slot = id >> 6), so
// dense IDs spread round-robin, each shard's slice stays compact and
// concurrent workers rarely collide. It has no insertion order: a global
// order is meaningless under concurrency, and the deterministic finalize
// pass rebuilds an ordered presentation table from this one after the
// fixpoint converges.
type DenseShardedTable struct {
	shards [numShards]denseShard
}

// NewDenseShardedTable returns an empty dense sharded table.
func NewDenseShardedTable() *DenseShardedTable { return &DenseShardedTable{} }

// Get returns the entry for id, or nil.
func (t *DenseShardedTable) Get(id domain.PatternID) *Entry {
	s := &t.shards[int(id)&(numShards-1)]
	slot := int(id) >> shardBits
	s.mu.Lock()
	var e *Entry
	if slot < len(s.slots) {
		e = s.slots[slot]
	}
	s.mu.Unlock()
	return e
}

// GetOrAdd returns the entry for the interned calling pattern, creating
// it when absent, and reports whether it was created. cp must be the
// interner's canonical representative for id.
func (t *DenseShardedTable) GetOrAdd(id domain.PatternID, cp *domain.Pattern) (*Entry, bool) {
	s := &t.shards[int(id)&(numShards-1)]
	slot := int(id) >> shardBits
	s.mu.Lock()
	for slot >= len(s.slots) {
		s.slots = append(s.slots, nil)
	}
	if e := s.slots[slot]; e != nil {
		s.mu.Unlock()
		return e, false
	}
	e := &Entry{ID: id, CP: cp}
	s.slots[slot] = e
	s.mu.Unlock()
	return e, true
}

// Len returns the total entry count across shards; exact only when no
// workers are running.
func (t *DenseShardedTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.slots {
			if e != nil {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
