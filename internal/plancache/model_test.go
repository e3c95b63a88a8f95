package plancache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/snapshot"
)

// refLRU is the cache as it was before it had aliases: a bounded LRU over
// Keys with the four counters, whose lookups retire an entry whose reads do
// not hold in the caller's snapshot unless it was recorded in a newer one,
// and whose puts keep such a newer entry. The model test holds Cache to it.
type refLRU struct {
	cap   int
	order []Key // most recently used first
	vals  map[Key]any
	reads map[Key]snapshot.Reads
	st    Stats
}

func (r *refLRU) touch(k Key) {
	r.order = slices.DeleteFunc(r.order, func(o Key) bool { return o == k })
	r.order = slices.Insert(r.order, 0, k)
}

func (r *refLRU) get(k Key, snap *snapshot.Snapshot) (any, bool) {
	v, ok := r.vals[k]
	if ok && snap != nil && !snap.Holds(r.reads[k]) {
		if !r.reads[k].Newer(snap.Reads()) {
			r.retire(k)
		}
		ok = false
	}
	if !ok {
		r.st.Misses++
		return nil, false
	}
	r.st.Hits++
	r.touch(k)
	return v, true
}

func (r *refLRU) put(k Key, v any, reads snapshot.Reads) {
	if _, ok := r.vals[k]; !ok {
		r.shrink(r.cap - 1)
	} else if r.reads[k].Newer(reads) {
		return
	}
	r.vals[k], r.reads[k] = v, reads
	r.touch(k)
}

// shrink evicts least recently used entries until at most n remain.
func (r *refLRU) shrink(n int) {
	for len(r.order) > n {
		delete(r.vals, r.order[len(r.order)-1])
		r.order = r.order[:len(r.order)-1]
		r.st.Evictions++
	}
}

// retire drops k as one invalidation.
func (r *refLRU) retire(k Key) {
	r.order = slices.DeleteFunc(r.order, func(o Key) bool { return o == k })
	delete(r.vals, k)
	r.st.Invalidations++
}

func (r *refLRU) invalidate(current uint64) {
	r.order = slices.DeleteFunc(r.order, func(k Key) bool {
		if k.Version == current {
			return false
		}
		delete(r.vals, k)
		r.st.Invalidations++
		return true
	})
}

func (r *refLRU) stats() Stats {
	st := r.st
	st.Entries, st.Capacity = len(r.order), r.cap
	return st
}

// checkAliases asserts the alias index's invariants: every alias leads to a
// resident entry of its own algorithm and is listed by it, every
// listed alias is indexed, and no entry lists more than MaxAliases.
func checkAliases(t *testing.T, c *Cache) {
	t.Helper()
	listed := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		en := el.Value.(*entry)
		if c.byKey[en.key] != el {
			t.Fatalf("entry %v is in the list but not in byKey", en.key)
		}
		if len(en.aliases) > MaxAliases {
			t.Fatalf("entry %v lists %d aliases, bound %d", en.key, len(en.aliases), MaxAliases)
		}
		for _, tk := range en.aliases {
			if c.byText[tk].el != el {
				t.Fatalf("entry %v lists alias %v, which the index resolves elsewhere", en.key, tk)
			}
			if tk.Algo != en.key.Algo {
				t.Fatalf("alias %v on entry %v crosses algorithms", tk, en.key)
			}
		}
		listed += len(en.aliases)
	}
	// Every alias an entry lists is indexed; equal counts make the converse
	// true too, so no alias outlives its entry.
	if listed != len(c.byText) {
		t.Fatalf("%d aliases indexed, %d listed by resident entries", len(c.byText), listed)
	}
}

// TestModelAliasesNeverChangeTheLRU drives random Get / Lookup / Put / text
// lookup / Alias / Invalidate / catalog write / SetCapacity sequences at
// capacity 4 through Cache and through refLRU, which has no aliases: a text
// hit stands for the Get hit it replaced, and a text lookup that finds a
// stale entry retires it as the reference's lookup would (one recorded in
// a newer snapshot than the pin stays). Query qN reads
// table tN; a catalog write re-declares one table, and a lookup pins the
// current snapshot or the one before it. Stats minus TextHits agree after
// every operation, a text hit returns the value the reference holds for
// the key the text was last aliased to, and the alias invariants hold
// throughout.
func TestModelAliasesNeverChangeTheLRU(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(4)
		ref := &refLRU{cap: 4, vals: make(map[Key]any), reads: make(map[Key]snapshot.Reads)}
		aliased := make(map[TextKey]Key) // what each text was last registered against
		cat := catalog.New()
		for i := 0; i < 4; i++ {
			cat.MustAddTable(catalog.SimpleTable(fmt.Sprint("t", i), 100, nil))
		}
		store := snapshot.NewStore(cat)
		prev := store.Current()
		puts, staleTexts, newerTexts := 0, 0, 0
		randKey := func() Key {
			return Key{Query: fmt.Sprint("q", rng.Intn(4)), Algo: rng.Intn(2), Version: uint64(1 + rng.Intn(2))}
		}
		// Six spellings a query, more than MaxAliases, so the bound engages.
		textOf := func(k Key) TextKey {
			return TextKey{Text: fmt.Sprint(k.Query, "/", rng.Intn(6)), Algo: k.Algo, Budget: int64(rng.Intn(8) / 7)}
		}
		put := func(k Key, snap *snapshot.Snapshot) any {
			puts++
			v := fmt.Sprint(k, "#", puts)
			reads := snap.Reads("t" + k.Query[1:])
			c.PutReads(k, v, reads)
			ref.put(k, v, reads)
			return v
		}
		lookup := func(op int, k Key, snap *snapshot.Snapshot) (any, bool) {
			v, ok := c.Lookup(k, snap)
			if want, wantOK := ref.get(k, snap); ok != wantOK || v != want {
				t.Fatalf("seed %d op %d: Lookup(%v) = (%v, %v), reference (%v, %v)", seed, op, k, v, ok, want, wantOK)
			}
			return v, ok
		}
		for op := 0; op < 20000; op++ {
			pin := store.Current()
			if rng.Intn(4) == 0 {
				pin = prev
			}
			switch k, r := randKey(), rng.Intn(100); {
			case r < 60: // planFor's protocol: by text, else by key, else plan and put; then alias
				tk := textOf(k)
				if a, known := c.byText[tk]; known && !pin.Holds(a.el.Value.(*entry).reads) {
					if a.el.Value.(*entry).reads.Newer(pin.Reads()) {
						newerTexts++
					} else {
						ref.retire(aliased[tk])
						staleTexts++
					}
				}
				if v, bound, ok := c.GetText(tk, pin); ok {
					want, resident := ref.get(aliased[tk], pin)
					if !resident || v != want || bound != tk.Text {
						t.Fatalf("seed %d op %d: text hit %v -> (%v, %v); the reference holds (%v, %v) under %v",
							seed, op, tk, v, bound, want, resident, aliased[tk])
					}
					break
				}
				v, ok := lookup(op, k, pin)
				if !ok {
					v = put(k, pin)
				}
				_, known := c.byText[tk]
				c.Alias(tk, k, v, tk.Text)
				if !known && ref.vals[k] == v {
					aliased[tk] = k
				}
			case r < 70:
				put(k, pin)
			case r < 80: // an alias out of the blue: unknown entry, a mismatched text, or not the resident value
				tk := textOf(randKey())
				_, known := c.byText[tk]
				v, resident := ref.vals[k]
				if rng.Intn(4) == 0 {
					v = "not resident"
				}
				c.Alias(tk, k, v, tk.Text)
				if resident && v == ref.vals[k] && !known && tk.Algo == k.Algo {
					aliased[tk] = k
				}
			case r < 82:
				v := uint64(1 + rng.Intn(2))
				c.Invalidate(v)
				ref.invalidate(v)
			case r < 85: // a catalog write
				prev = store.Current()
				if err := store.Mutate(func(cat *catalog.Catalog) error {
					return cat.AddTable(catalog.SimpleTable(fmt.Sprint("t", rng.Intn(4)), float64(op), nil))
				}); err != nil {
					t.Fatal(err)
				}
			case r < 89:
				n := 1 + rng.Intn(6)
				c.SetCapacity(n)
				ref.cap = n
				ref.shrink(n)
			case r < 95:
				lookup(op, k, pin)
			default:
				v, ok := c.Get(k)
				if want, wantOK := ref.get(k, nil); ok != wantOK || v != want {
					t.Fatalf("seed %d op %d: Get(%v) = (%v, %v), reference (%v, %v)", seed, op, k, v, ok, want, wantOK)
				}
			}
			got := c.Stats()
			got.TextHits = 0
			if want := ref.stats(); got != want {
				t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, got, want)
			}
			checkAliases(t, c)
		}
		if st := c.Stats(); st.TextHits == 0 || st.TextHits == st.Hits || st.Evictions == 0 || st.Invalidations == 0 || staleTexts == 0 || newerTexts == 0 {
			t.Fatalf("seed %d: the sequence did not exercise every route (%d stale texts, %d newer): %+v", seed, staleTexts, newerTexts, st)
		}
	}
}
