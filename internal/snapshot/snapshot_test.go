package snapshot

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Versions advance by one per successful mutation, and a pinned snapshot
// is frozen: later mutations never change what it reads.
func TestVersionsAndIsolation(t *testing.T) {
	st := NewStore(nil)
	if v := st.Version(); v != 1 {
		t.Fatalf("fresh store at version %d, want 1", v)
	}
	if err := st.Mutate(func(c *catalog.Catalog) error {
		return c.AddTable(catalog.SimpleTable("R", 100, map[string]float64{"x": 10}))
	}); err != nil {
		t.Fatal(err)
	}
	pinned := st.Current()
	if pinned.Version() != 2 {
		t.Fatalf("version %d after one mutation, want 2", pinned.Version())
	}
	if err := st.Mutate(func(c *catalog.Catalog) error {
		return c.AddTable(catalog.SimpleTable("R", 999, map[string]float64{"x": 10}))
	}); err != nil {
		t.Fatal(err)
	}
	if got := pinned.Catalog().Table("R").Card; got != 100 {
		t.Fatalf("pinned snapshot saw later mutation: card %g, want 100", got)
	}
	if got := st.Current().Catalog().Table("R").Card; got != 999 {
		t.Fatalf("current snapshot card %g, want 999", got)
	}
}

// A failed mutation publishes nothing: the version does not advance and
// partial changes made by fn before the failure are invisible.
func TestFailedMutationPublishesNothing(t *testing.T) {
	st := NewStore(nil)
	boom := errors.New("boom")
	err := st.Mutate(func(c *catalog.Catalog) error {
		if err := c.AddTable(catalog.SimpleTable("half", 1, nil)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st.Version() != 1 {
		t.Fatalf("failed mutation advanced version to %d", st.Version())
	}
	if st.Current().Catalog().Table("half") != nil {
		t.Fatal("failed mutation's partial change is visible")
	}
}

// Concurrent writers serialize: every mutation lands, versions are dense.
func TestConcurrentWriters(t *testing.T) {
	st := NewStore(nil)
	// Seed the table the writers increment.
	if err := st.Mutate(func(c *catalog.Catalog) error {
		return c.AddTable(catalog.SimpleTable("W", 0, nil))
	}); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				err := st.Mutate(func(c *catalog.Catalog) error {
					return c.AddTable(catalog.SimpleTable("W", c.Table("W").Card+1, nil))
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := st.Current().Catalog().Table("W").Card; got != writers*25 {
		t.Fatalf("lost updates: card %g, want %d", got, writers*25)
	}
	if v := st.Version(); v != 2+writers*25 {
		t.Fatalf("version %d, want %d", v, 2+writers*25)
	}
}

// What a reader derived from a table holds until a publication writes the
// table: a write to another table leaves it holding, a re-declaration
// retires it even with equal statistics, so does a load with equal
// statistics, and a Jump that lands on the current version retires every
// table. A mutation that writes no table through AddTable or SetData moves
// no stamp, and a read recorded after a snapshot never holds in it.
func TestReadsHoldUntilTheirTableChanges(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 100, map[string]float64{"x": 10}))
	cat.MustAddTable(catalog.SimpleTable("B", 100, map[string]float64{"x": 10}))
	st := NewStoreAt(cat, 5)
	readA, readB, readC := st.Current().Reads("A"), st.Current().Reads("b"), st.Current().Reads("C")
	holds := func(what string, wantA, wantB bool) {
		t.Helper()
		snap := st.Current()
		if a, b, c := snap.Holds(readA), snap.Holds(readB), snap.Holds(readC); a != wantA || b != wantB || !c {
			t.Fatalf("after %s: reads of A, B and unknown C hold %v, %v, %v; want %v, %v, true", what, a, b, c, wantA, wantB)
		}
	}
	mutate := func(fn func(*catalog.Catalog) error) {
		t.Helper()
		if err := st.Mutate(fn); err != nil {
			t.Fatal(err)
		}
	}
	declareB := func(card float64) func(*catalog.Catalog) error {
		return func(c *catalog.Catalog) error {
			return c.AddTable(catalog.SimpleTable("B", card, map[string]float64{"x": 10}))
		}
	}
	holds("nothing", true, true)
	mutate(func(*catalog.Catalog) error { return nil })
	holds("writing nothing", true, true)
	mutate(declareB(100))
	holds("re-declaring B with equal statistics", true, false)
	readB = st.Current().Reads("B")
	mutate(declareB(200))
	holds("re-declaring B", true, false)
	readB = st.Current().Reads("B")
	mutate(func(c *catalog.Catalog) error {
		c.SetData("A", storage.NewTable("A", storage.MustSchema(storage.ColumnDef{Name: "x", Type: storage.TypeInt64})))
		return nil
	})
	holds("loading A with equal statistics", false, true)
	readA = st.Current().Reads("A")
	next := st.Current().Catalog().Clone()
	next.MustAddTable(catalog.SimpleTable("B", 300, map[string]float64{"x": 10}))
	diverged := st.Current()
	st.Jump(next, diverged.Version())
	holds("a Jump to the same version", false, false)
	if diverged.Holds(st.Current().Reads("C")) {
		t.Fatal("a read recorded after the Jump holds in the diverged snapshot of the same version, though C was never written")
	}
}
