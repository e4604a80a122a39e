package core

import "awam/internal/domain"

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
	// ConsultIDs holds the interned IDs of Consults, in the same order.
	// The finalize pass also dedups Consults through it: a small slice
	// with linear scans beats a per-entry set, since consult lists are
	// short and the replay visits every presented entry on every warm
	// run.
	ConsultIDs []domain.PatternID
}

// Key returns the calling pattern's canonical serialization — the
// human-readable boundary (display, serialized summaries, cross-engine
// test comparison). The engine itself keys on ID.
func (e *Entry) Key() string { return e.CP.Key() }

// SuccID returns Succ's interned identity (domain.BottomID while Succ is
// nil).
func (e *Entry) SuccID() domain.PatternID { return e.succID }

// Warm reports whether the entry was seeded from a WarmStart cache
// instead of being explored (incremental warm starts).
func (e *Entry) Warm() bool { return e.warm }

// The extension table is indexed by interned calling-pattern ID.
// PatternIDs are dense small integers (domain.Interner), so the table is
// an ID-indexed slice: a Get is one bounds check and one load. The paper
// searches "a linear list of (calling-pattern, success-pattern) pairs";
// DESIGN §3.3 records why this departure changes no reported figure.

// DenseTable is the extension table of both fixpoint strategies (naive
// and worklist); the finalize pass reads converged summaries from it.
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
