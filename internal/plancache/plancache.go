// Package plancache caches optimized plans and their estimates, keyed by
// (canonical normalized query, algorithm, catalog version), with a second
// way into the same entries by raw statement text (see TextKey).
//
// The key design makes invalidation exact for free: the serving layer pins
// one immutable snapshot version per query (internal/snapshot), the version
// is part of the cache key, and published catalogs are never mutated in
// place — so an entry can never be served against a catalog it was not
// computed on, no matter how writers, replication replay, or crash recovery
// move the current version. The eviction that runs on every published bump
// (see Invalidate) is therefore a space optimization, not a correctness
// mechanism: entries for superseded versions can no longer be requested by
// new queries and are dropped eagerly instead of waiting out the LRU.
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
// against a resident entry, dropped with it on eviction, invalidation and
// SetCapacity, and counted in no statistic but TextHits — which entries
// exist, and in what recency order, is the same with or without them.
package plancache

import (
	"container/list"
	"sync"
)

// DefaultCapacity bounds the cache when the caller does not configure one
// (Limits.PlanCacheSize). 512 plans comfortably covers a dashboard-style
// repeated workload while keeping the worst-case footprint small.
const DefaultCapacity = 512

// Key identifies one cached plan: the canonical normalized query text, the
// estimation algorithm that planned it, and the catalog version it was
// planned against.
type Key struct {
	// Query is the Canonical() rendering of the bound query, plus any
	// caller suffix (e.g. a forced join order).
	Query string
	// Algo discriminates estimation configurations: the same SQL planned
	// under ELS and under SM yields different plans and estimates.
	Algo int
	// Version is the catalog snapshot version the entry was computed on.
	Version uint64
}

// TextKey finds an entry by the statement text that produced it, before the
// text has been lexed, parsed, bound or canonicalised. Parsing is a function
// of the text and binding of the text and the catalog, so (text, version)
// determines the bound query and with it the canonical Key: a text hit
// returns exactly what the canonical route would have, minus the work.
type TextKey struct {
	// Text is the statement exactly as the caller wrote it.
	Text string
	// Algo and Version are the entry's Key.Algo and Key.Version.
	Algo    int
	Version uint64
	// Budgeted is the caller's byte-budget marker: one text planned with and
	// without a budget has two canonical entries, so it needs two aliases.
	Budgeted bool
}

// MaxAliases bounds the texts remembered per entry, and so the alias index
// to MaxAliases × capacity texts. Registering one more drops the entry's
// oldest; a dropped text still reaches the entry through its canonical Key.
const MaxAliases = 4

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count lookups: a GetText hit or a Get hit is one hit,
	// a Get miss is one miss, a GetText miss is neither (the Get that
	// follows it decides).
	Hits, Misses uint64
	// TextHits counts the Hits that GetText served — the lookups that never
	// reached the parser.
	TextHits uint64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64
	// Invalidations counts entries retired because a newer catalog version
	// was published.
	Invalidations uint64
	// Entries and Capacity describe current occupancy.
	Entries, Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key Key
	val any
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
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores v under k, evicting the least recently used entry if the
// cache is full. Storing an existing key replaces its value.
func (c *Cache) Put(k Key, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).val = v
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		c.remove(c.lru.Back())
		c.evictions++
	}
	c.byKey[k] = c.lru.PushFront(&entry{key: k, val: v})
}

// GetText returns the value cached under the entry tk is an alias of, and
// the bound query registered with that alias, marking the entry most
// recently used. A miss counts nothing: the caller goes on to Get by
// canonical key, which counts the lookup's one hit or miss.
func (c *Cache) GetText(tk TextKey) (val, bound any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.byText[tk]
	if !ok {
		return nil, nil, false
	}
	c.hits++
	c.textHits++
	c.lru.MoveToFront(a.el)
	return a.el.Value.(*entry).val, a.bound, true
}

// Alias registers tk, with the query bound from its text, as a way to the
// entry under k. It does nothing when tk is already registered (a text
// determines its entry, so there is nothing to change), when k is not
// resident (evicted or invalidated since the caller's Get or Put), or when
// tk names another algorithm or version than k — an alias must die with its
// entry, and Invalidate retires entries by version. It neither counts a
// lookup nor refreshes recency.
func (c *Cache) Alias(tk TextKey, k Key, bound any) {
	if tk.Algo != k.Algo || tk.Version != k.Version {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		return
	}
	if _, known := c.byText[tk]; known {
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

// Invalidate retires every entry whose version differs from current. The
// snapshot store calls it on each publication (mutation, replication
// replay, or recovery jump); entries at the surviving version — queries
// already pinned there — stay servable.
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
