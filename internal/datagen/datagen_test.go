package datagen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func TestDistributionString(t *testing.T) {
	names := map[Distribution]string{
		DistUniform:      "uniform",
		DistPermutation:  "permutation",
		DistSequential:   "sequential",
		DistZipf:         "zipf",
		Distribution(99): "unknown",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(TableSpec{Name: "t", Rows: -1, Columns: []ColumnSpec{{Name: "x", Dist: DistUniform, Domain: 1}}}, 1); err == nil {
		t.Error("negative rows should error")
	}
	if _, err := Generate(TableSpec{Name: "t", Rows: 1}, 1); err == nil {
		t.Error("no columns should error")
	}
	if _, err := Generate(TableSpec{Name: "t", Rows: 1, Columns: []ColumnSpec{{Name: ""}}}, 1); err == nil {
		t.Error("unnamed column should error")
	}
	if _, err := Generate(TableSpec{Name: "t", Rows: 1, Columns: []ColumnSpec{{Name: "x", Dist: DistUniform, Domain: 0}}}, 1); err == nil {
		t.Error("zero domain should error")
	}
	if _, err := Generate(TableSpec{Name: "t", Rows: 4, Columns: []ColumnSpec{{Name: "x", Dist: DistPermutation, Domain: 2}}}, 1); err == nil {
		t.Error("permutation domain mismatch should error")
	}
	if _, err := Generate(TableSpec{Name: "t", Rows: 1, Columns: []ColumnSpec{{Name: "x", Dist: Distribution(42), Domain: 3}}}, 1); err == nil {
		t.Error("unknown distribution should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := TableSpec{Name: "t", Rows: 50, Columns: []ColumnSpec{{Name: "x", Dist: DistUniform, Domain: 20}}}
	a, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Value(i, 0).Int() != b.Value(i, 0).Int() {
			t.Fatal("same seed should reproduce identical data")
		}
	}
	c, _ := Generate(spec, 43)
	same := true
	for i := 0; i < 50; i++ {
		if a.Value(i, 0).Int() != c.Value(i, 0).Int() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestPermutationColumn(t *testing.T) {
	tbl, err := Generate(TableSpec{Name: "t", Rows: 100, Columns: []ColumnSpec{{Name: "x", Dist: DistPermutation}}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		v := tbl.Value(i, 0).Int()
		if v < 0 || v >= 100 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d in permutation", v)
		}
		seen[v] = true
	}
}

func TestSequentialColumn(t *testing.T) {
	tbl, err := Generate(TableSpec{Name: "t", Rows: 10, Columns: []ColumnSpec{{Name: "x", Dist: DistSequential, Domain: 4}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if tbl.Value(i, 0).Int() != int64(i%4) {
			t.Fatalf("row %d = %d, want %d", i, tbl.Value(i, 0).Int(), i%4)
		}
	}
}

func TestUniformColumnBounds(t *testing.T) {
	tbl, err := Generate(TableSpec{Name: "t", Rows: 1000, Columns: []ColumnSpec{{Name: "x", Dist: DistUniform, Domain: 10}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for i := 0; i < 1000; i++ {
		v := tbl.Value(i, 0).Int()
		if v < 0 || v >= 10 {
			t.Fatalf("out of domain: %d", v)
		}
		counts[v]++
	}
	for v, n := range counts {
		if n < 50 || n > 200 {
			t.Errorf("value %d count %d far from uniform expectation 100", v, n)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewZipf(rng, 0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(rng, 10, -1); err == nil {
		t.Error("negative theta should error")
	}
	if _, err := NewZipf(rng, 10, math.NaN()); err == nil {
		t.Error("NaN theta should error")
	}
}

func TestZipfThetaZeroIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	z, err := NewZipf(rng, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		counts[z.Next()]++
	}
	for v, n := range counts {
		if n < 800 || n > 1200 {
			t.Errorf("theta=0 value %d count %d far from 1000", v, n)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	z, err := NewZipf(rng, 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50]*5 {
		t.Errorf("theta=1 should heavily favor rank 0: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Expected P(0) = 1/H_100 ≈ 0.1928.
	p0 := float64(counts[0]) / 20000
	if math.Abs(p0-0.1928) > 0.03 {
		t.Errorf("P(0) = %g, want ~0.193", p0)
	}
}

func TestPaperTables(t *testing.T) {
	s, m, b, g, err := PaperTables(10, 99)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[*storage.Table]int{s: 100, m: 1000, b: 5000, g: 10000}
	for tbl, want := range wantRows {
		if tbl.NumRows() != want {
			t.Errorf("%s rows = %d, want %d", tbl.Name(), tbl.NumRows(), want)
		}
	}
	if s.Schema().ColumnIndex("s") != 0 || g.Schema().ColumnIndex("g") != 0 {
		t.Error("join columns misnamed")
	}
	// Correct answer property: count of s=m=b=g with s < 10 (scaled from the
	// paper's s < 100) must be exactly 10, because each join column is a
	// permutation so each value 0..9 appears exactly once per table.
	count := 0
	inM := make(map[int64]bool)
	for i := 0; i < m.NumRows(); i++ {
		inM[m.Value(i, 0).Int()] = true
	}
	for i := 0; i < s.NumRows(); i++ {
		v := s.Value(i, 0).Int()
		if v < 10 && inM[v] {
			count++
		}
	}
	if count != 10 {
		t.Errorf("S⋈M with s<10 = %d rows, want exactly 10", count)
	}
	if _, _, _, _, err := PaperTables(0, 1); err == nil {
		t.Error("scale 0 should error")
	}
}
