package inc

import (
	"bytes"
	"sync"

	"awam/internal/cache"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/term"
)

// recordCache keeps the entries decoded from each record the engine
// served, keyed by fingerprint, together with the bytes they came from.
// A warm analysis reuses them only when the store returns byte-identical
// data, so what it sees is exactly decodeRecord of those bytes; other
// data is decoded again and replaces them. A warm one-edit analysis
// otherwise re-parsed every served record from text.
//
// Decoded patterns live over a private symbol table: the engine serves
// every program it analyzes, and a request's table must not collect
// other programs' names. Each analysis maps the private atoms it meets
// into its own table (atomMap) and interns the patterns through that
// map (domain.Interner.InternMapped).
//
// Concurrent analyses share the cache (the daemon runs several on one
// engine): mu guards the map, the table and the byte count, decoding
// runs outside it, and cached entries are never mutated. The cache is
// bounded by the store's memory budget. Each record is charged its raw
// size plus an estimate of its decoded nodes; a record that would push
// the cache over drops the whole cache, and the private table with it,
// so that neither grows without bound.
type recordCache struct {
	mu   sync.Mutex
	tab  *term.Tab
	recs map[cache.Fingerprint]*decoded
	snap *snapshot
	// sums holds the per-predicate summaries kept with the records
	// (Result.KeepSummary), one per predicate. They belong to the
	// snapshot: they are kept only while there is one, for analyses over
	// tables it fits, the only ones whose patterns they can match.
	sums   map[term.Functor]*storedSummary
	bytes  int64
	budget int64
	// decodes counts records decoded from text, and interned the served
	// records interned into an analysis' interner (tests).
	decodes, interned int64
}

// snapshot is the finished interner of the engine's last analysis,
// with the warm entries, as IDs in it, of the records that analysis
// served or wrote, by fingerprint, and the texts of its patterns as far as they
// were rendered. An analysis over a table the snapshot fits starts from
// a clone of the interner (domain.Interner.Clone), so the records it
// serves with the same bytes need no interning, and the patterns
// it keeps need no rendering: consecutive analyses of one program's
// versions intern and render only the dirty cone's. The snapshot is
// never changed; it is charged to the budget like the decoded records,
// and its text memo as it grows.
type snapshot struct {
	tab   *term.Tab
	in    *domain.Interner
	comps map[cache.Fingerprint]*cachedSCC
	texts *textMemo
	cost  int64
	// atoms are the names the interner's nodes use (Interner.Atoms), as
	// tab spells them.
	atoms []term.Atom
	names []string
	// checked is the last other table fits compared, and fit its
	// verdict; c.mu guards both.
	checked *term.Tab
	fit     bool
}

// fits reports whether the snapshot is valid for an analysis over tab:
// whether tab spells every name the interner's nodes use as the
// snapshot's table does. A node means a pattern over a table only
// through those names (its atoms are numbers into the table), and so do
// its text and the stored values computed from it; a fresh load of a
// program whose names and their numbering did not change fits the
// snapshot of the last one. The check costs one comparison per name,
// and none for the snapshot's own table or the table checked last.
// c.mu is held.
func (s *snapshot) fits(tab *term.Tab) bool {
	if tab == s.tab {
		return true
	}
	if tab != s.checked {
		s.checked, s.fit = tab, tab.Spells(s.atoms, s.names)
	}
	return s.fit
}

// start returns the interner an analysis over tab starts from and the
// records whose IDs it keeps, nil and nil when the snapshot does
// not fit tab, and the text memo for the analysis' patterns. A snapshot
// that does not fit is dropped: the analysis will replace it, and its
// memory is free while it runs.
func (c *recordCache) start(tab *term.Tab) (*domain.Interner, map[cache.Fingerprint]*cachedSCC, *textMemo) {
	c.mu.Lock()
	s := c.snap
	if s != nil && !s.fits(tab) {
		c.dropSnapshot()
		s = nil
	}
	c.mu.Unlock()
	if s == nil {
		return nil, nil, &textMemo{c: c}
	}
	return s.in.Clone(), s.comps, s.texts
}

// keep makes in, the interner of a finished analysis over tab, the
// snapshot, with comps, the records it served or wrote, and texts, the
// memo the analysis started with. A snapshot that does not fit the budget is not
// kept, and the stored summaries go with the last one.
func (c *recordCache) keep(tab *term.Tab, in *domain.Interner, comps map[cache.Fingerprint]*cachedSCC, texts *textMemo) {
	pats, terms := in.Size()
	atoms := in.Atoms()
	s := &snapshot{tab: tab, in: in, comps: comps, texts: texts, cost: int64(pats+terms) * nodeBytes,
		atoms: atoms, names: tab.Names(atoms)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snap != nil {
		c.bytes -= c.snap.cost + c.snap.texts.bytes
		c.snap = nil
	}
	if c.bytes+s.cost+texts.bytes <= c.budget {
		c.snap = s
		c.bytes += s.cost + texts.bytes
	} else {
		c.dropSummaries()
	}
}

// dropSnapshot forgets the snapshot, with its texts and the stored
// summaries; c.mu is held.
func (c *recordCache) dropSnapshot() {
	if c.snap != nil {
		c.bytes -= c.snap.cost + c.snap.texts.bytes
		c.snap = nil
	}
	c.dropSummaries()
}

// textMemo keeps the texts (domain.PatternText) of a snapshot lineage's
// pattern nodes: the analyses that start from one snapshot share its
// memo, and pass it to the snapshot they make. Texts are rendered
// lazily, by the serializations that need them (Result.Marshal, the
// records of changed components), and offered here when a serialization
// ends; the first one's map is kept as it is, so the analysis that
// primes the memo pays nothing to fill it. Every analysis that can reach
// a node of the lineage spells the node's names alike (snapshot.fits),
// so one text serves them all; a node only one analysis made is keyed by
// a pointer no other analysis holds. The memo grows only while it is the
// snapshot's, within the budget, and its texts are charged while it is.
type textMemo struct {
	c     *recordCache
	mu    sync.RWMutex
	texts map[*domain.Pattern]string
	// bytes is the charge for the texts; c.mu guards it.
	bytes int64
}

// textBytes is the charge for a kept text besides its bytes: its map
// slot (pointer key and string header, 24 bytes) with the map's load
// and growth slack.
const textBytes = 48

func (m *textMemo) Text(p *domain.Pattern) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.texts[p]
	return s, ok
}

func (m *textMemo) Keep(texts map[*domain.Pattern]string, n int64) {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	cost := textBytes*int64(len(texts)) + n // at most: some may be kept already
	if c.snap == nil || c.snap.texts != m || c.bytes+cost > c.budget {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.texts == nil {
		m.texts = texts
	} else {
		cost = 0
		for p, s := range texts {
			if _, ok := m.texts[p]; !ok {
				m.texts[p] = s
				cost += textBytes + int64(len(s))
			}
		}
	}
	m.bytes += cost
	c.bytes += cost
}

// count adds n to the records interned.
func (c *recordCache) count(n int) {
	c.mu.Lock()
	c.interned += int64(n)
	c.mu.Unlock()
}

// storedSummary is a value an analysis kept for one predicate (see
// Result.KeepSummary) with the fingerprint its component had and the
// table entries it was computed from: each entry's calling and success
// pattern, as the interned representatives of the analysis' interner.
type storedSummary struct {
	fp   cache.Fingerprint
	pats []*domain.Pattern
	v    any
	cost int64
}

// storedBytes is the charge for a stored summary's record and map slot,
// besides the value's own size and its pattern slice.
const storedBytes = 128

// summary returns the summary stored for fn under fp over tab, if it
// was computed from entries with ents' patterns. The entries are
// compared as interner nodes, so a match means they are the very nodes
// the stored ones were: nodes of the snapshot tab fits, or of the
// analysis that stored them over tab. ents must not be empty, since
// only they tie fn's atom in tab to its name.
func (c *recordCache) summary(tab *term.Tab, fp cache.Fingerprint, fn term.Functor, ents []*core.Entry) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snap == nil || !c.snap.fits(tab) || len(ents) == 0 {
		return nil, false
	}
	s := c.sums[fn]
	if s == nil || s.fp != fp || len(s.pats) != 2*len(ents) {
		return nil, false
	}
	for i, e := range ents {
		if s.pats[2*i] != e.CP || s.pats[2*i+1] != e.Succ {
			return nil, false
		}
	}
	return s.v, true
}

// keepSummary stores v, of size bytes, as fn's summary under fp,
// computed from pats over tab; it replaces what fn had stored, under
// whatever fingerprint. Summaries are kept only while there is a
// snapshot that fits tab, and dropped with it. The patterns are the
// interner's nodes, which the snapshot's lineage of clones holds and is
// charged for (a summary from an analysis whose interner did not become
// the snapshot may hold a few nodes besides, until fn stores again), so
// the summary pays for its value and the pointers to them. A summary
// that does not fit the budget drops the stored summaries.
func (c *recordCache) keepSummary(tab *term.Tab, fp cache.Fingerprint, fn term.Functor, pats []*domain.Pattern, v any, size int64) {
	s := &storedSummary{fp: fp, pats: pats, v: v, cost: storedBytes + size + 8*int64(len(pats))}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snap == nil || !c.snap.fits(tab) {
		return
	}
	if old := c.sums[fn]; old != nil {
		c.bytes -= old.cost
		delete(c.sums, fn)
	}
	if c.bytes+s.cost > c.budget {
		c.dropSummaries()
		return
	}
	if c.sums == nil {
		c.sums = make(map[term.Functor]*storedSummary)
	}
	c.sums[fn] = s
	c.bytes += s.cost
}

// dropSummaries forgets every stored summary; c.mu is held.
func (c *recordCache) dropSummaries() {
	for _, s := range c.sums {
		c.bytes -= s.cost
	}
	c.sums = nil
}

// decoded is one record's decoded form over the private table tab.
type decoded struct {
	raw     []byte
	tab     *term.Tab
	entries []RecordEntry
	// atoms lists the distinct names the entries use.
	atoms []term.Atom
	cost  int64
}

// nodeBytes is the charge per decoded pattern or term node: the node
// itself and its slot in the parent's argument slice.
const nodeBytes = 72

// budgeted is implemented by stores with a memory budget (cache.Store).
type budgeted interface {
	MemoryBudget() int64
}

func newRecordCache(store cache.ChunkStore) *recordCache {
	budget := int64(cache.DefaultBudget)
	if b, ok := store.(budgeted); ok {
		budget = b.MemoryBudget()
	}
	return &recordCache{tab: term.NewTab(), recs: make(map[cache.Fingerprint]*decoded), budget: budget}
}

// decodeMemo shares dep patterns among the records one load decodes
// (decodeRecord's memo); it is valid for one table only.
type decodeMemo struct {
	tab  *term.Tab
	pats map[string]*domain.Pattern
}

// get returns the decoded form of data, the record stored under fp, or
// nil when data is malformed.
func (c *recordCache) get(fp cache.Fingerprint, data []byte, memo *decodeMemo) *decoded {
	c.mu.Lock()
	d, tab := c.recs[fp], c.tab
	c.mu.Unlock()
	if d != nil && bytes.Equal(d.raw, data) {
		return d
	}
	if memo.tab != tab {
		memo.tab, memo.pats = tab, make(map[string]*domain.Pattern)
	}
	entries, err := decodeRecord(tab, data, memo.pats)
	if err != nil {
		return nil
	}
	d = newDecoded(tab, data, entries)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.decodes++
	if c.tab != tab {
		return d // the cache was dropped meanwhile: d serves this load only
	}
	if old := c.recs[fp]; old != nil {
		c.bytes -= old.cost
		delete(c.recs, fp)
	}
	if c.bytes+d.cost > c.budget {
		c.tab = term.NewTab()
		clear(c.recs)
		c.snap = nil
		c.sums = nil
		c.bytes = 0
		return d
	}
	c.recs[fp] = d
	c.bytes += d.cost
	return d
}

// newDecoded indexes a decoded record's names and prices it.
func newDecoded(tab *term.Tab, raw []byte, entries []RecordEntry) *decoded {
	d := &decoded{raw: raw, tab: tab, entries: entries}
	seen := make(map[term.Atom]bool)
	nodes := 0
	name := func(a term.Atom) {
		if !seen[a] {
			seen[a] = true
			d.atoms = append(d.atoms, a)
		}
	}
	var walk func(t *domain.Term)
	walk = func(t *domain.Term) {
		nodes++
		switch t.Kind {
		case domain.Struct:
			name(t.Fn.Name)
			for _, a := range t.Args {
				walk(a)
			}
		case domain.List:
			walk(t.Elem)
		}
	}
	pattern := func(p *domain.Pattern) {
		if p == nil {
			return
		}
		nodes++
		name(p.Fn.Name)
		for _, a := range p.Args {
			walk(a)
		}
	}
	for _, re := range entries {
		pattern(re.CP)
		pattern(re.Succ)
		for _, dep := range re.Deps {
			pattern(dep)
		}
	}
	d.cost = int64(len(raw)) + int64(nodes)*nodeBytes
	return d
}

// atomMap translates the atoms of one private table into an analysis'
// table, each filled by name on first use.
type atomMap struct {
	from, to *term.Tab
	// atoms[a] is a's atom in to; 0 means not yet filled (only the
	// empty name, atom 0 in every table, maps to 0).
	atoms []term.Atom
}

// cover fills the map for every name in names.
func (m *atomMap) cover(names []term.Atom) {
	for _, a := range names {
		for int(a) >= len(m.atoms) {
			m.atoms = append(m.atoms, 0)
		}
		if a != 0 && m.atoms[a] == 0 {
			m.atoms[a] = m.to.Intern(m.from.Name(a))
		}
	}
}

// servedSCC is one component a warm load serves: its decoded record and
// the map from the record's table into the analysis' table.
type servedSCC struct {
	scc   int
	fp    cache.Fingerprint
	rec   *decoded
	atoms *atomMap
}

// warmEntry is one cached calling pattern as IDs in an analysis'
// interner: its converged success pattern and finalize trace.
type warmEntry struct {
	cp, succ domain.PatternID
	deps     []domain.PatternID
}

// warmTable implements core.WarmStart over the served records, indexed
// by calling-pattern ID.
type warmTable struct {
	seeds []*warmEntry
}

func (w *warmTable) lookup(id domain.PatternID) *warmEntry {
	if int(id) < len(w.seeds) {
		return w.seeds[id]
	}
	return nil
}

func (w *warmTable) Seed(id domain.PatternID) (domain.PatternID, bool) {
	if s := w.lookup(id); s != nil {
		return s.succ, true
	}
	return domain.BottomID, false
}

func (w *warmTable) Trace(id domain.PatternID) []domain.PatternID {
	if s := w.lookup(id); s != nil {
		return s.deps
	}
	return nil
}

// cachedSCC retains a served record for the post-run merge: raw bytes
// (to skip redundant Puts) and its entries as IDs (to keep calling
// patterns this run never touched). It is never changed once built, so
// a snapshot and the analyses that start from it share it.
type cachedSCC struct {
	raw     []byte
	entries []warmEntry
}

// index makes we's calling pattern a seed.
func (w *warmTable) index(we *warmEntry) {
	for int(we.cp) >= len(w.seeds) {
		w.seeds = append(w.seeds, nil)
	}
	w.seeds[we.cp] = we
}

// seed interns every served entry into in, indexes the calling patterns,
// and returns the served records by component and how many of them it
// interned. A record prev holds under the same fingerprint with the same
// bytes is taken from prev without interning: in is a clone of the
// interner prev's IDs belong to.
func (w *warmTable) seed(in *domain.Interner, served []servedSCC, prev map[cache.Fingerprint]*cachedSCC) (map[int]*cachedSCC, int) {
	cached := make(map[int]*cachedSCC, len(served))
	interned := 0
	// A callee's calling pattern recurs as a dep in every caller's
	// trace, and records decoded in one load share those nodes.
	ids := make(map[*domain.Pattern]domain.PatternID)
	intern := func(p *domain.Pattern, atoms []term.Atom) domain.PatternID {
		if p == nil {
			return domain.BottomID
		}
		id, ok := ids[p]
		if !ok {
			id, _ = in.InternMapped(p, atoms)
			ids[p] = id
		}
		return id
	}
	for _, s := range served {
		if c := prev[s.fp]; c != nil && bytes.Equal(c.raw, s.rec.raw) {
			for k := range c.entries {
				w.index(&c.entries[k])
			}
			cached[s.scc] = c
			continue
		}
		atoms := s.atoms.atoms
		c := &cachedSCC{raw: s.rec.raw, entries: make([]warmEntry, len(s.rec.entries))}
		for k, re := range s.rec.entries {
			we := &c.entries[k]
			we.cp = intern(re.CP, atoms)
			we.succ = intern(re.Succ, atoms)
			we.deps = make([]domain.PatternID, len(re.Deps))
			for j, dep := range re.Deps {
				we.deps[j] = intern(dep, atoms)
			}
			w.index(we)
		}
		cached[s.scc] = c
		interned++
	}
	return cached, interned
}
