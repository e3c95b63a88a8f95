// Package snapshot publishes copy-on-write versions of the statistics
// catalog so that statistics refresh never blocks or corrupts in-flight
// estimation.
//
// The serving layer pins the current Snapshot once at query admission and
// threads it through parsing, estimation, planning, and execution; every
// read the query performs therefore sees exactly one published catalog
// version, no matter how many writers publish while it runs. Writers are
// serialized: each mutation deep-clones the current catalog's statistics
// and index declarations (backing data tables are immutable and shared),
// applies the mutation to the clone, and publishes the clone atomically
// under the next version number. A mutation that fails publishes nothing, which makes
// every catalog mutation all-or-nothing — a half-imported stats file can
// never become visible.
//
// Versions are monotonically increasing from 1 (the empty catalog a system
// starts with) and are surfaced to users through Estimate.CatalogVersion
// and Explain output. Each table also carries a stamp (see Reads).
package snapshot

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
)

// Snapshot is one immutable published catalog version. The catalog it
// carries must not be mutated by readers; the store's Mutate is the only
// writer and it always writes to a fresh clone.
type Snapshot struct {
	// serial numbers the store's publications 1, 2, 3, ... Unlike version
	// it never repeats: a replica's Jump may land on a version it published.
	version, serial uint64
	cat             *catalog.Catalog
	stamps          map[string]uint64 // lower-cased table name -> serial that last wrote it
}

// Version is the snapshot's monotonically increasing version number.
func (s *Snapshot) Version() uint64 { return s.version }

// Reads records what a reader derived something from: the publication it
// was pinned at and the tables it read. It holds numbers and names, not
// catalogs.
type Reads struct {
	serial uint64
	tables []string // lower-cased
}

// Reads records the named tables as read in s.
func (s *Snapshot) Reads(tables ...string) Reads {
	r := Reads{serial: s.serial, tables: make([]string, len(tables))}
	for i, t := range tables {
		r.tables[i] = strings.ToLower(t)
	}
	return r
}

// Holds reports whether r, recorded in a snapshot of the same store, holds
// in s: it was recorded in s, or in an earlier snapshot and no table it
// names was written since (each table's stamp is the serial of the last
// publication that wrote it). One recorded after s never holds there.
func (s *Snapshot) Holds(r Reads) bool {
	if r.serial >= s.serial {
		return r.serial == s.serial
	}
	for _, t := range r.tables {
		if s.stamps[t] > r.serial {
			return false
		}
	}
	return true
}

// Newer reports whether r was recorded in a later publication than than.
func (r Reads) Newer(than Reads) bool { return r.serial > than.serial }

// Catalog is the snapshot's immutable catalog.
func (s *Snapshot) Catalog() *catalog.Catalog { return s.cat }

// Durability is the hook a durable log implements (see internal/durable).
// When installed, LogMutation is called for each mutation after the
// mutation function succeeds and before the new version is published; a
// non-nil error aborts publication, so an acknowledged (published) version
// is by construction a durable one.
type Durability interface {
	LogMutation(version uint64, prev, next *catalog.Catalog) error
}

// Store holds the current catalog snapshot and serializes writers.
// Current is wait-free (one atomic load), so pinning a version at query
// admission costs nothing even under heavy mutation traffic.
type Store struct {
	//lockorder:level 42
	mu  sync.Mutex // serializes Mutate; guards dur
	dur Durability
	cur atomic.Pointer[Snapshot]
}

// NewStore starts a store at version 1 holding cat.
func NewStore(cat *catalog.Catalog) *Store {
	return NewStoreAt(cat, 1)
}

// NewStoreAt starts a store at an explicit version — the recovery path:
// a durable store reopens at the version its checkpoint + WAL replay
// reached, and the snapshot chain continues from there.
func NewStoreAt(cat *catalog.Catalog, version uint64) *Store {
	if cat == nil {
		cat = catalog.New()
	}
	if version == 0 {
		version = 1
	}
	st := &Store{}
	st.cur.Store(&Snapshot{version: version, serial: 1, cat: cat, stamps: map[string]uint64{}})
	return st
}

// publish makes cat current at version, stamping the written tables.
func (st *Store) publish(cat *catalog.Catalog, version uint64, written []string) {
	prev := st.cur.Load()
	next := &Snapshot{version: version, serial: prev.serial + 1, cat: cat, stamps: maps.Clone(prev.stamps)}
	for _, name := range written {
		next.stamps[strings.ToLower(name)] = next.serial
	}
	st.cur.Store(next)
}

// SetDurability installs (or with nil removes) the durability hook.
func (st *Store) SetDurability(d Durability) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dur = d
}

// Current returns the latest published snapshot.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Version returns the latest published version number.
func (st *Store) Version() uint64 { return st.cur.Load().version }

// Mutate applies fn to a deep clone of the current catalog's statistics
// and, if fn succeeds, publishes the clone as the next version. If fn
// fails, nothing is published and the error is returned: readers never see
// a partially applied mutation. Writers are serialized; readers are never
// blocked. The tables fn writes (Catalog.Touched) are stamped as written,
// equal writes included; fn changes no statistics in place.
//
// With a Durability hook installed, the mutation is logged and fsynced
// between fn succeeding and the version being published: a nil return
// means the mutation is both visible and durable, and a durability failure
// publishes nothing.
func (st *Store) Mutate(fn func(*catalog.Catalog) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	next := cur.cat.Clone()
	if err := fn(next); err != nil {
		return err
	}
	if st.dur != nil {
		if err := st.dur.LogMutation(cur.version+1, cur.cat, next); err != nil {
			return err
		}
	}
	st.publish(next, cur.version+1, next.Touched())
	return nil
}

// Jump publishes cat at an explicit version, outside the normal +1 chain —
// the replica full-resync path: a follower that lost frames (or diverged)
// is handed the primary's complete catalog at the primary's version and
// must land exactly there, skipping the versions it never saw. The
// Durability hook is NOT consulted; the caller is responsible for having
// persisted cat at version independently (internal/durable.ResetTo does).
// cat must be treated as immutable from here on, like any published
// catalog. Every table of either catalog counts as written.
func (st *Store) Jump(cat *catalog.Catalog, version uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.publish(cat, version, append(st.cur.Load().cat.TableNames(), cat.TableNames()...))
}

// Locked runs fn on the current snapshot while holding the writer lock, so
// no version can be published during fn. Checkpointing uses it to capture
// a (catalog, version) pair that is guaranteed still-current when the
// checkpoint is written.
func (st *Store) Locked(fn func(*Snapshot) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return fn(st.cur.Load())
}
