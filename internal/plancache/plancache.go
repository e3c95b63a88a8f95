// Package plancache caches optimized plans and their estimates, keyed by
// (canonical normalized query, algorithm), with a second way into the same
// entries by raw statement text (see TextKey).
//
// An entry stays valid while the tables its statement reads are not
// written, so validity is checked at use: an entry records the publication
// and the tables it was planned on (snapshot.Reads), every lookup names the
// caller's pinned snapshot, and an entry that does not hold there is
// retired, aliases and all, as one invalidation (or, if planned after that
// snapshot, just missed). Catalog writes never touch the cache.
//
// The canonical normalized query (see Canonical) collapses formatting-only
// differences — whitespace, predicate order, alias and keyword case — so
// semantically identical texts share one entry, while type-tagged constant
// rendering keeps semantically distinct queries from ever colliding.
//
// Building that key takes a lexed, parsed and bound query, which costs far
// more than the lookup it enables. So every entry also remembers up to
// MaxAliases statement texts that led to it, and GetText finds it by text
// before any of that work. Aliases are part of their entry: registered only
// against a resident entry, dropped with it on eviction, invalidation,
// replacement and SetCapacity, and counted in no statistic but TextHits —
// which entries exist, and in what recency order, is the same without them.
package plancache

import (
	"container/list"
	"sync"

	"repro/internal/counters"
	"repro/internal/snapshot"
)

// DefaultCapacity bounds the cache when the caller does not configure one
// (Limits.PlanCacheSize). 512 plans comfortably covers a dashboard-style
// repeated workload while keeping the worst-case footprint small.
const DefaultCapacity = 512

// Key identifies one cached plan: the canonical normalized query text and
// the estimation algorithm that planned it.
type Key struct {
	// Query is the Canonical() rendering of the bound query, plus any
	// caller suffix (e.g. a forced join order).
	Query string
	// Algo discriminates estimation configurations: the same SQL planned
	// under ELS and under SM yields different plans and estimates.
	Algo int
	// Version is a caller's own, for Invalidate; Reads need none.
	Version uint64
}

// TextKey finds an entry by the statement text that produced it, before the
// text has been lexed, parsed, bound or canonicalised. Binding reads only the
// tables the text names, so while the entry holds the text determines the
// bound query and its Key: a text hit returns what the canonical route would.
type TextKey struct {
	// Text is the statement exactly as the caller wrote it.
	Text string
	// Algo is the entry's Key.Algo.
	Algo int
	// Budget is the caller's byte budget (0: none), which the plan depends
	// on: one text planned under two budgets has two canonical entries, so
	// it needs two aliases.
	Budget int64
}

// MaxAliases bounds the texts remembered per entry, and so the alias index
// to MaxAliases × capacity texts. Registering one more drops the entry's
// oldest; a dropped text still reaches the entry through its canonical Key.
const MaxAliases = 4

// Stats is a point-in-time snapshot of the cache counters. The section
// is defined in internal/counters, where its JSON keys serve the wire.
type Stats = counters.PlanCache

type entry struct {
	key   Key
	val   any
	reads snapshot.Reads
	// aliases are the entry's keys in byText, oldest first.
	aliases []TextKey
}

// alias is one text's way to an entry, with the query bound from that text:
// projections render column names as written, so the bound query belongs to
// the text, not to the canonical entry its formatting variants share.
type alias struct {
	el    *list.Element
	bound any
}

// Cache is a bounded, thread-safe LRU over immutable plan entries. Values
// stored in it are shared by every hit — callers must treat them as
// read-only (the serving layer copies its estimate template per hit).
type Cache struct {
	//lockorder:level 50
	mu            sync.Mutex
	cap           int
	lru           *list.List // front = most recently used; stores *entry
	byKey         map[Key]*list.Element
	byText        map[TextKey]alias // every alias is listed in its entry's aliases
	hits          uint64
	textHits      uint64
	misses        uint64
	evictions     uint64
	invalidations uint64
}

// New creates a cache bounded to capacity entries; capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:    capacity,
		lru:    list.New(),
		byKey:  make(map[Key]*list.Element),
		byText: make(map[TextKey]alias),
	}
}

// Get returns the value cached under k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) { return c.Lookup(k, nil) }

// Lookup is Get serving the entry only if its reads hold in snap (nil:
// always); one that does not is retired as an invalidation, and misses.
func (c *Cache) Lookup(k Key, snap *snapshot.Snapshot) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok || !c.serve(el, snap) {
		c.misses++
		return nil, false
	}
	c.hits++
	return el.Value.(*entry).val, true
}

// serve moves el to the front if its reads hold in snap. One that does not
// is retired, unless it was planned on a newer snapshot than snap: readers
// pinned there may still use it.
func (c *Cache) serve(el *list.Element, snap *snapshot.Snapshot) bool {
	if reads := el.Value.(*entry).reads; snap != nil && !snap.Holds(reads) {
		if !reads.Newer(snap.Reads()) {
			c.remove(el)
			c.invalidations++
		}
		return false
	}
	c.lru.MoveToFront(el)
	return true
}

// Put stores v under k, evicting the least recently used entry if the cache
// is full. Storing an existing key replaces its value, aliases and all.
func (c *Cache) Put(k Key, v any) { c.PutReads(k, v, snapshot.Reads{}) }

// PutReads is Put of a value derived from what reads records. It keeps a
// resident entry recorded in a newer publication instead.
func (c *Cache) PutReads(k Key, v any, reads snapshot.Reads) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		if el.Value.(*entry).reads.Newer(reads) {
			return
		}
		c.remove(el)
	}
	for c.lru.Len() >= c.cap {
		c.remove(c.lru.Back())
		c.evictions++
	}
	c.byKey[k] = c.lru.PushFront(&entry{key: k, val: v, reads: reads})
}

// GetText returns the value of the entry tk is an alias of, and the query
// bound with that alias, marking the entry most recently used; snap is
// Lookup's. A miss counts nothing but a stale entry's invalidation: the
// caller goes on to Lookup, which counts the lookup's one hit or miss.
func (c *Cache) GetText(tk TextKey, snap *snapshot.Snapshot) (val, bound any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.byText[tk]
	if !ok || !c.serve(a.el, snap) {
		return nil, nil, false
	}
	c.hits++
	c.textHits++
	return a.el.Value.(*entry).val, a.bound, true
}

// Alias registers tk, with the query bound from its text, as a way to the
// entry under k holding val. It does nothing when tk is already registered
// (a text determines its entry), when k is not resident or holds another
// value (the query was bound with val), or when tk names another algorithm
// than k. It neither counts a lookup nor refreshes recency.
func (c *Cache) Alias(tk TextKey, k Key, val, bound any) {
	if tk.Algo != k.Algo {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if _, known := c.byText[tk]; !ok || known || el.Value.(*entry).val != val {
		return
	}
	en := el.Value.(*entry)
	if len(en.aliases) == MaxAliases {
		delete(c.byText, en.aliases[0])
		en.aliases = append(en.aliases[:0], en.aliases[1:]...)
	}
	en.aliases = append(en.aliases, tk)
	c.byText[tk] = alias{el: el, bound: bound}
}

// remove drops the entry and its aliases.
func (c *Cache) remove(el *list.Element) {
	en := c.lru.Remove(el).(*entry)
	delete(c.byKey, en.key)
	for _, tk := range en.aliases {
		delete(c.byText, tk)
	}
}

// Invalidate retires every entry whose Key.Version differs from current.
func (c *Cache) Invalidate(current uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).key.Version != current {
			c.remove(el)
			c.invalidations++
		}
	}
}

// SetCapacity rebounds the cache, evicting LRU entries if it shrank below
// the current occupancy. n <= 0 selects DefaultCapacity.
func (c *Cache) SetCapacity(n int) {
	if n <= 0 {
		n = DefaultCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back())
		c.evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		TextHits:      c.textHits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
	}
}
