package plancache

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/snapshot"
)

func k(q string, v uint64) Key { return Key{Query: q, Algo: 0, Version: v} }

func TestGetPutLRU(t *testing.T) {
	c := New(2)
	c.Put(k("a", 1), "A")
	c.Put(k("b", 1), "B")
	if v, ok := c.Get(k("a", 1)); !ok || v != "A" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// a was just touched, so inserting c evicts b (the LRU entry).
	c.Put(k("c", 1), "C")
	if _, ok := c.Get(k("b", 1)); ok {
		t.Fatal("b survived eviction; LRU order not honored")
	}
	if _, ok := c.Get(k("a", 1)); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := New(2)
	c.Put(k("a", 1), "old")
	c.Put(k("a", 1), "new")
	if v, _ := c.Get(k("a", 1)); v != "new" {
		t.Fatalf("Get(a) = %v, want new", v)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVersionIsPartOfKey(t *testing.T) {
	c := New(8)
	c.Put(k("q", 1), "v1")
	c.Put(k("q", 2), "v2")
	if v, _ := c.Get(k("q", 1)); v != "v1" {
		t.Fatalf("version 1 entry = %v", v)
	}
	if v, _ := c.Get(k("q", 2)); v != "v2" {
		t.Fatalf("version 2 entry = %v", v)
	}
}

func TestInvalidateRetiresOldVersions(t *testing.T) {
	c := New(8)
	c.Put(k("a", 1), 1)
	c.Put(k("b", 1), 1)
	c.Put(k("a", 2), 2)
	c.Invalidate(2)
	if _, ok := c.Get(k("a", 1)); ok {
		t.Fatal("version-1 entry survived invalidation")
	}
	if _, ok := c.Get(k("b", 1)); ok {
		t.Fatal("version-1 entry survived invalidation")
	}
	if v, ok := c.Get(k("a", 2)); !ok || v != 2 {
		t.Fatalf("current-version entry lost: %v, %v", v, ok)
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetCapacityShrinkEvicts(t *testing.T) {
	c := New(4)
	for i, q := range []string{"a", "b", "c", "d"} {
		c.Put(k(q, uint64(i)), q)
	}
	c.SetCapacity(2)
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 2 {
		t.Fatalf("stats after shrink = %+v", st)
	}
	// The two most recently used (c, d) survive.
	if _, ok := c.Get(k("d", 3)); !ok {
		t.Fatal("MRU entry evicted by shrink")
	}
	if _, ok := c.Get(k("a", 0)); ok {
		t.Fatal("LRU entry survived shrink")
	}
}

func TestZeroCapacitySelectsDefault(t *testing.T) {
	c := New(0)
	if st := c.Stats(); st.Capacity != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", st.Capacity, DefaultCapacity)
	}
	c.SetCapacity(-1)
	if st := c.Stats(); st.Capacity != DefaultCapacity {
		t.Fatalf("capacity after SetCapacity(-1) = %d", st.Capacity)
	}
}

func TestHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("empty hit rate = %g", hr)
	}
	if hr := (Stats{Hits: 3, Misses: 1}).HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %g, want 0.75", hr)
	}
}

// A lookup that finds an entry whose reads do not hold in its snapshot
// retires it, aliases and all, as one invalidation. By text it counts
// nothing else; by key it counts the miss.
func TestStaleEntryRetiredAtLookup(t *testing.T) {
	store := snapshot.NewStore(nil)
	declare := func(card float64) {
		if err := store.Mutate(func(cat *catalog.Catalog) error {
			return cat.AddTable(catalog.SimpleTable("R", card, nil))
		}); err != nil {
			t.Fatal(err)
		}
	}
	declare(1)
	planned := store.Current()
	declare(2)
	c := New(4)
	tk := TextKey{Text: "select a"}
	c.PutReads(k("a", 0), "A", planned.Reads("R"))
	c.Alias(tk, k("a", 0), "A", "bound a")
	if _, _, ok := c.GetText(tk, store.Current()); ok {
		t.Fatal("a stale entry was served by text")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 || st.Hits+st.Misses != 0 || len(c.byText) != 0 {
		t.Fatalf("stale text lookup: %+v, %d aliases left", st, len(c.byText))
	}
	c.PutReads(k("a", 0), "A", planned.Reads("R"))
	if _, ok := c.Lookup(k("a", 0), store.Current()); ok {
		t.Fatal("a stale entry was served by key")
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stale key lookup: %+v", st)
	}
}

// A reader pinned before a write neither retires nor replaces an entry
// planned after it: it misses, and its own plan is not stored.
func TestOlderPinKeepsANewerEntry(t *testing.T) {
	store := snapshot.NewStore(nil)
	old := store.Current()
	if err := store.Mutate(func(cat *catalog.Catalog) error {
		return cat.AddTable(catalog.SimpleTable("R", 1, nil))
	}); err != nil {
		t.Fatal(err)
	}
	c := New(4)
	tk := TextKey{Text: "select a"}
	c.PutReads(k("a", 0), "new", store.Current().Reads("R"))
	c.Alias(tk, k("a", 0), "new", "bound a")
	if _, _, ok := c.GetText(tk, old); ok {
		t.Fatal("an entry was served by text to a reader pinned before its table changed")
	}
	if _, ok := c.Lookup(k("a", 0), old); ok {
		t.Fatal("an entry was served by key to a reader pinned before its table changed")
	}
	c.PutReads(k("a", 0), "old", old.Reads("R"))
	if st := c.Stats(); st.Invalidations != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("older pin: %+v", st)
	}
	if v, _, ok := c.GetText(tk, store.Current()); !ok || v != "new" {
		t.Fatalf("GetText at the head = %v, %v; want the newer entry", v, ok)
	}
}

// An alias binds a text to the value its caller looked up or put: a value
// replaced since then takes no alias, and replacing a value drops the
// aliases bound with the old one.
func TestAliasFollowsTheValue(t *testing.T) {
	c := New(4)
	tk := TextKey{Text: "select a"}
	c.Put(k("a", 0), "old")
	c.Put(k("a", 0), "new")
	c.Alias(tk, k("a", 0), "old", "bound with old")
	if _, _, ok := c.GetText(tk, nil); ok {
		t.Fatal("an alias registered against a replaced value")
	}
	c.Alias(tk, k("a", 0), "new", "bound with new")
	if v, bound, ok := c.GetText(tk, nil); !ok || v != "new" || bound != "bound with new" {
		t.Fatalf("GetText = %v, %v, %v", v, bound, ok)
	}
	c.Put(k("a", 0), "newer")
	if _, _, ok := c.GetText(tk, nil); ok || len(c.byText) != 0 {
		t.Fatal("an alias survived the replacement of its value")
	}
}
