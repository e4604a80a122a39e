package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"awam"
)

// recentDigests bounds how many sources seen once the program cache
// remembers while waiting for a second sight.
const recentDigests = 64

// programCache keeps loaded programs in the daemon, keyed by the SHA-256
// of their source, so a repeat query on an unchanged program skips
// parse, compile, condensation and specialization: a System memoizes
// the last two, and is safe for concurrent use.
//
// A miss derives the program from the last one loaded (awam's
// Derive): an edited source reads and compiles again only what the edit
// touched, and shares the last program's symbol table. The table only
// grows, so once it has doubled since its lineage was loaded fresh, the
// next miss loads fresh onto a new table. The analysis engine keeps its
// interner snapshot across that rebase when the new table numbers the
// names the snapshot uses as the old one did (inc's snapshot.fits).
//
// A program is admitted on second sight. Its first load only records
// the digest among the recent ones; the System is kept when the same
// source is loaded again, or when another request asked for it while
// its first load ran. A stream of one-off sources therefore never
// enters the cache and never evicts a program in repeated use. At most
// limit programs stay resident, evicted least recently used. Concurrent
// loads of one source share a single parse, and failed loads are never
// kept: every repeat of a bad source fails the same way.
type programCache struct {
	// parse is awam.Load, the fresh load; tests replace it to hold a
	// load open.
	parse func(source string) (*awam.System, error)

	mu       sync.Mutex
	resident *lru[*awam.System]
	recent   *lru[struct{}]
	loading  map[[sha256.Size]byte]*programLoad
	// base is the System the last miss loaded; the next miss derives
	// from it.
	base *awam.System

	// misses counts every load that parsed, derivations those of them
	// Derive served from a base.
	hits, misses, derivations atomic.Int64
}

// rebaseFactor bounds a lineage's shared symbol table: a miss derives
// from the base only while the table holds fewer than rebaseFactor
// times the atoms it held at the lineage's fresh load.
const rebaseFactor = 2

// programLoad is one in-progress Load shared by concurrent requests.
type programLoad struct {
	done chan struct{}
	sys  *awam.System
	err  error
	// admit is set when the source was seen before this load, or when
	// another request joined it: either way it is in repeated use.
	admit bool
}

func newProgramCache(limit int) *programCache {
	return &programCache{
		parse:    awam.Load,
		resident: newLRU[*awam.System](limit),
		recent:   newLRU[struct{}](recentDigests),
		loading:  make(map[[sha256.Size]byte]*programLoad),
	}
}

// source is a request's program text with its SHA-256, hashed once per
// request: the program cache and the request's flight key both address
// the program by the digest.
type source struct {
	text   string
	digest [sha256.Size]byte
}

func newSource(text string) source {
	// The hash reads the text in place: converting a whole program to
	// []byte would copy it on every request, and hashing never writes.
	return source{text: text, digest: sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))}
}

// load returns the System for src: the resident one on a hit, else the
// result of a (shared) build. A hit is any request served without
// parsing, a miss one that parsed.
func (c *programCache) load(ctx context.Context, src source) (*awam.System, error) {
	key := src.digest
	c.mu.Lock()
	if sys, ok := c.resident.get(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return sys, nil
	}
	if l, ok := c.loading[key]; ok {
		l.admit = true
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-l.done:
			return l.sys, l.err
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", awam.ErrCanceled, context.Cause(ctx))
		}
	}
	_, seen := c.recent.get(key)
	l := &programLoad{done: make(chan struct{}), admit: seen}
	c.loading[key] = l
	c.mu.Unlock()

	c.misses.Add(1)
	l.sys, l.err = c.build(src.text)

	c.mu.Lock()
	delete(c.loading, key)
	if l.err == nil {
		c.base = l.sys
	}
	switch {
	case l.err != nil:
		// Not kept and not remembered: a repeat fails the same way.
	case l.admit:
		c.recent.remove(key)
		c.resident.put(key, l.sys)
	default:
		c.recent.put(key, struct{}{})
	}
	c.mu.Unlock()
	close(l.done)
	return l.sys, l.err
}

// build loads text on a miss: derived from the base while its table
// is under the rebase bound, else fresh.
func (c *programCache) build(text string) (*awam.System, error) {
	c.mu.Lock()
	base := c.base
	c.mu.Unlock()
	if base != nil {
		if atoms, atLoad := base.TableSize(); atoms < rebaseFactor*atLoad {
			sys, err := base.Derive(text)
			if err == nil {
				c.derivations.Add(1)
			}
			return sys, err
		}
	}
	return c.parse(text)
}

// residentCount returns the number of programs held.
func (c *programCache) residentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident.len()
}

// lru is a bounded map that evicts its least recently used entry. It is
// not synchronized.
type lru[V any] struct {
	limit int
	order *list.List // front is most recent
	items map[[sha256.Size]byte]*list.Element
}

type lruEntry[V any] struct {
	key [sha256.Size]byte
	val V
}

func newLRU[V any](limit int) *lru[V] {
	return &lru[V]{limit: limit, order: list.New(), items: make(map[[sha256.Size]byte]*list.Element)}
}

func (m *lru[V]) len() int { return len(m.items) }

// get returns the value for key and marks it most recently used.
func (m *lru[V]) get(key [sha256.Size]byte) (V, bool) {
	e, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.order.MoveToFront(e)
	return e.Value.(*lruEntry[V]).val, true
}

// put stores key as the most recently used entry, evicting the least
// recently used one beyond the limit.
func (m *lru[V]) put(key [sha256.Size]byte, val V) {
	if e, ok := m.items[key]; ok {
		e.Value.(*lruEntry[V]).val = val
		m.order.MoveToFront(e)
		return
	}
	m.items[key] = m.order.PushFront(&lruEntry[V]{key: key, val: val})
	if m.order.Len() > m.limit {
		m.remove(m.order.Back().Value.(*lruEntry[V]).key)
	}
}

func (m *lru[V]) remove(key [sha256.Size]byte) {
	if e, ok := m.items[key]; ok {
		m.order.Remove(e)
		delete(m.items, key)
	}
}
