// Package cache implements the tiered content-addressed summary store
// behind the incremental analysis engine (internal/inc) — the node-local
// end of the distributed summary fabric.
//
// A Store composes up to three tiers, probed nearest first:
//
//	memory  — byte-budgeted LRU of records (mem.go, always present)
//	disk    — fingerprint-named files in a directory (disk.go, optional)
//	remote  — a peer daemon's store over a batched has/get/put HTTP
//	          protocol (remote.go, optional)
//
// A hit in a far tier promotes the record into the nearer ones; puts
// write through memory and disk and buffer an upstream push that Flush
// ships in batches. Every tier failure — disk errors, peer outages,
// slow, corrupt or oversized payloads — degrades to a miss on the
// composed Get, so callers above the ChunkStore interface never see
// the fabric, only a cache with a variable hit rate.
//
// Records are addressed by their producer's content fingerprint — a
// hash covering an SCC's compiled WAM code and the fingerprints of its
// transitive callees — so a record can never be served for changed
// code: any edit in the cone changes the address. That makes the store
// itself trivial: no invalidation protocol, no versioned keys, just
// get/put by fingerprint, and it is what makes cross-tenant sharing
// safe — identical library components hash identically in every user's
// program. Values are opaque bytes (the inc package owns the record
// format); the store only moves, budgets and persists them.
package cache

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Fingerprint is the content address of one record: the hex form of the
// producer's SCC hash. The store treats it as an opaque file-name-safe
// token; Validate rejects anything else so hostile fingerprints cannot
// escape the cache directory.
type Fingerprint string

// valid reports whether fp is a plausible content address: non-empty
// lowercase hex, bounded length. Everything the inc package produces
// passes; path separators, "..", and other hostile names do not.
func (fp Fingerprint) valid() bool {
	if len(fp) == 0 || len(fp) > 128 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Valid reports whether fp is a well-formed content address (the
// fabric endpoints validate peer-supplied fingerprints with it).
func (fp Fingerprint) Valid() bool { return fp.valid() }

// Stats is a point-in-time snapshot of store traffic and occupancy.
type Stats struct {
	// Hits and Misses count composed Get probes; a Get served by any
	// tier is one hit (tier attribution is DiskLoads/RemoteLoads).
	// Evictions counts records dropped from memory by the byte budget;
	// persisted copies survive eviction.
	Hits, Misses, Evictions int64
	// DiskLoads counts records faulted in from the cache directory;
	// DiskErrors counts persistence failures (the store degrades to
	// memory-only rather than failing the analysis).
	DiskLoads, DiskErrors int64
	// Remote-tier traffic. RemoteLoads counts records faulted in from
	// the peer (Prefetch included); RemoteMisses records the peer was
	// asked for but did not serve; RemotePuts records the peer accepted;
	// RemoteRoundTrips HTTP exchanges attempted; RemoteErrors failed
	// exchanges plus corrupt/oversized records dropped; RemoteDropped
	// buffered upstream pushes abandoned (overflow or failed flush);
	// BreakerOpens circuit-breaker open events. Degraded is true while
	// the breaker is open and the store is serving from local tiers
	// only.
	RemoteLoads, RemoteMisses, RemotePuts int64
	RemoteRoundTrips, RemoteErrors        int64
	RemoteDropped, BreakerOpens           int64
	Degraded                              bool
	// Entries and Bytes describe current in-memory occupancy.
	Entries int
	Bytes   int64
}

// ChunkStore is the storage contract the incremental engine analyzes
// against: a content-addressed get/put record store. *Store implements
// it over the tier stack; tests substitute flat fakes.
type ChunkStore interface {
	// Get returns the record stored under fp, or ok=false. The returned
	// bytes are shared — callers must not mutate them.
	Get(fp Fingerprint) ([]byte, bool)
	// Put stores data under fp, replacing any previous record.
	Put(fp Fingerprint, data []byte)
	// Stats snapshots the store's counters and occupancy.
	Stats() Stats
}

// Store is the tiered summary store. Safe for concurrent use; the
// memory tier takes one short mutex hold per operation and all disk and
// network I/O happens outside it.
type Store struct {
	mem    *memTier
	disk   *diskTier   // nil: memory-only
	remote *remoteTier // nil: no fabric peer

	hits, misses atomic.Int64
}

var _ ChunkStore = (*Store)(nil)

// DefaultBudget is the in-memory byte budget used when none is
// configured: large enough for thousands of SCC records, small enough
// to be irrelevant next to the analyzer's own working set.
const DefaultBudget = 64 << 20

// Option configures New.
type Option func(*storeConfig)

type storeConfig struct {
	budget     int64
	dir        string
	remoteURL  string
	remoteOpts []RemoteOption
}

// WithMemoryBudget sets the in-memory byte budget (non-positive selects
// DefaultBudget).
func WithMemoryBudget(n int64) Option {
	return func(c *storeConfig) { c.budget = n }
}

// WithDir enables the disk tier: records persist as <fingerprint>.scc
// files in dir, survive restarts, and re-serve evicted records.
func WithDir(dir string) Option {
	return func(c *storeConfig) { c.dir = dir }
}

// WithRemoteURL enables the remote tier against the daemon at base
// (e.g. "http://10.0.0.7:8347"), reached through the batched
// /v1/store/{has,get,put} protocol.
func WithRemoteURL(base string, opts ...RemoteOption) Option {
	return func(c *storeConfig) {
		c.remoteURL = base
		c.remoteOpts = opts
	}
}

// New builds a tiered store from options. Memory-only construction
// cannot fail; the disk tier fails if its directory cannot be created.
func New(opts ...Option) (*Store, error) {
	var c storeConfig
	for _, o := range opts {
		o(&c)
	}
	s := &Store{mem: newMemTier(c.budget)}
	if c.dir != "" {
		d, err := newDiskTier(c.dir)
		if err != nil {
			return nil, fmt.Errorf("cache: create dir: %w", err)
		}
		s.disk = d
	}
	if c.remoteURL != "" {
		s.remote = newRemoteTier(c.remoteURL, c.remoteOpts...)
	}
	return s, nil
}

// NewStore returns a store with the given in-memory byte budget
// (non-positive selects DefaultBudget) and, when dir is non-empty, a
// disk tier in dir. It predates the option constructor; New is the
// general form.
func NewStore(budget int64, dir string) (*Store, error) {
	return New(WithMemoryBudget(budget), WithDir(dir))
}

// MemoryBudget reports the memory tier's byte budget. The incremental
// engine bounds the records it keeps decoded by it too.
func (s *Store) MemoryBudget() int64 { return s.mem.budget }

// Get returns the record stored under fp, or ok=false, probing memory,
// then disk, then the fabric peer; far-tier hits promote the record
// into the nearer tiers.
func (s *Store) Get(fp Fingerprint) ([]byte, bool) {
	if !fp.valid() {
		return nil, false
	}
	if data, ok := s.mem.get(fp); ok {
		s.hits.Add(1)
		return data, true
	}
	if s.disk != nil {
		if data, ok := s.disk.get(fp); ok {
			s.hits.Add(1)
			s.mem.put(fp, data)
			return data, true
		}
	}
	if s.remote != nil {
		if data, ok := s.remote.getOne(fp); ok {
			s.hits.Add(1)
			s.promote(fp, data)
			return data, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// GetLocal is Get restricted to the memory and disk tiers. The fabric
// endpoints serve peers with it so a cycle of daemons can never chase
// each other's remote tiers.
func (s *Store) GetLocal(fp Fingerprint) ([]byte, bool) {
	if !fp.valid() {
		return nil, false
	}
	if data, ok := s.mem.get(fp); ok {
		s.hits.Add(1)
		return data, true
	}
	if s.disk != nil {
		if data, ok := s.disk.get(fp); ok {
			s.hits.Add(1)
			s.mem.put(fp, data)
			return data, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// HasLocal reports whether the memory or disk tier holds fp, without
// touching recency or stats (the fabric's presence probes must not
// distort hit rates).
func (s *Store) HasLocal(fp Fingerprint) bool {
	if !fp.valid() {
		return false
	}
	if s.mem.has(fp) {
		return true
	}
	return s.disk != nil && s.disk.has(fp)
}

// promote writes a remotely-faulted record into the local tiers.
func (s *Store) promote(fp Fingerprint, data []byte) {
	s.mem.put(fp, data)
	if s.disk != nil {
		s.disk.put(fp, data)
	}
}

// Prefetch batch-faults the given fingerprints from the fabric peer
// into the local tiers, skipping those already local. The incremental
// engine calls it with a program's full component fingerprint set
// before warm-starting, turning up to len(fps) per-component round
// trips into a handful of batched ones. Without a remote tier it is
// free.
func (s *Store) Prefetch(fps []Fingerprint) {
	if s.remote == nil || len(fps) == 0 {
		return
	}
	want := fps[:0:0]
	seen := make(map[Fingerprint]bool, len(fps))
	for _, fp := range fps {
		if !fp.valid() || seen[fp] || s.HasLocal(fp) {
			continue
		}
		seen[fp] = true
		want = append(want, fp)
	}
	if len(want) == 0 {
		return
	}
	recs := s.remote.get(want)
	// Promote in sorted order so disk writes are deterministic for
	// tests that diff cache directories.
	ordered := make([]Fingerprint, 0, len(recs))
	for fp := range recs {
		ordered = append(ordered, fp)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, fp := range ordered {
		s.promote(fp, recs[fp])
	}
}

// Put stores data under fp, replacing any previous record: memory and
// disk are written through, and when a fabric peer is configured the
// record is buffered for the next Flush. Persistence failures are
// counted (Stats.DiskErrors) but not returned: a broken disk degrades
// the store to memory-only instead of failing analyses.
func (s *Store) Put(fp Fingerprint, data []byte) {
	if !fp.valid() {
		return
	}
	s.mem.put(fp, data)
	if s.disk != nil {
		s.disk.put(fp, data)
	}
	if s.remote != nil {
		s.remote.enqueue(fp, data)
	}
}

// PutLocal stores data in the memory and disk tiers only — the write
// path of the fabric endpoints, which must not re-push records they
// were pushed (unbounded amplification in daemon cycles otherwise).
func (s *Store) PutLocal(fp Fingerprint, data []byte) {
	if !fp.valid() {
		return
	}
	s.mem.put(fp, data)
	if s.disk != nil {
		s.disk.put(fp, data)
	}
}

// Flush pushes buffered records to the fabric peer (a has round trip
// filters records the peer already holds, then batched puts ship the
// rest). The incremental engine flushes once per analysis; it is a
// no-op without a remote tier.
func (s *Store) Flush() {
	if s.remote != nil {
		s.remote.flush()
	}
}

// Remote reports whether a fabric peer is configured.
func (s *Store) Remote() bool { return s.remote != nil }

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
	}
	entries, bytes, evictions := s.mem.occupancy()
	st.Entries = entries
	st.Bytes = bytes
	st.Evictions = evictions
	if s.disk != nil {
		st.DiskLoads = s.disk.loads.Load()
		st.DiskErrors = s.disk.errors.Load()
	}
	if s.remote != nil {
		st.RemoteLoads = s.remote.loads.Load()
		st.RemoteMisses = s.remote.misses.Load()
		st.RemotePuts = s.remote.puts.Load()
		st.RemoteRoundTrips = s.remote.roundTrips.Load()
		st.RemoteErrors = s.remote.errors.Load()
		st.RemoteDropped = s.remote.dropped.Load()
		st.BreakerOpens = s.remote.opens.Load()
		st.Degraded = s.remote.degraded()
	}
	return st
}
