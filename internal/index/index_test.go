package index

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func buildTable(t *testing.T, vals []int64, withNull bool) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeInt64},
	))
	for i, v := range vals {
		tbl.MustAppendRow(storage.Int64(v), storage.Int64(int64(i)))
	}
	if withNull {
		tbl.MustAppendRow(storage.Null(storage.TypeInt64), storage.Int64(-1))
	}
	return tbl
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, "k"); err == nil {
		t.Error("nil table should error")
	}
	tbl := buildTable(t, []int64{1}, false)
	if _, err := Build(tbl, "missing"); err == nil {
		t.Error("missing column should error")
	}
}

func TestLookupEquality(t *testing.T) {
	tbl := buildTable(t, []int64{5, 3, 5, 1, 5, 2}, true)
	ix, err := Build(tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 6 {
		t.Errorf("Len = %d, want 6 (NULL excluded)", ix.Len())
	}
	rows := ix.Lookup(storage.Int64(5))
	if len(rows) != 3 {
		t.Fatalf("Lookup(5) = %v", rows)
	}
	for _, r := range rows {
		if tbl.Value(r, 0).Int() != 5 {
			t.Errorf("row %d has key %v", r, tbl.Value(r, 0))
		}
	}
	if got := ix.Lookup(storage.Int64(99)); got != nil {
		t.Errorf("missing key = %v", got)
	}
	if got := ix.Lookup(storage.Null(storage.TypeInt64)); got != nil {
		t.Errorf("NULL probe must match nothing: %v", got)
	}
	if ix.Table() != tbl || ix.Column() != 0 {
		t.Error("accessors wrong")
	}
}

func TestEmptyIndex(t *testing.T) {
	tbl := buildTable(t, nil, false)
	ix, err := Build(tbl, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Lookup(storage.Int64(1)) != nil || ix.Len() != 0 {
		t.Error("empty index should match nothing")
	}
}

// Property: Lookup agrees with a linear scan for random data.
func TestLookupMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20))
		}
		tbl := buildTable(t, vals, trial%2 == 0)
		ix, err := Build(tbl, "k")
		if err != nil {
			t.Fatal(err)
		}
		for probe := int64(-1); probe <= 21; probe += 3 {
			want := 0
			for _, v := range vals {
				if v == probe {
					want++
				}
			}
			if got := len(ix.Lookup(storage.Int64(probe))); got != want {
				t.Fatalf("trial %d probe %d: got %d rows, want %d", trial, probe, got, want)
			}
		}
	}
}
