// Package datagen produces deterministic synthetic datasets for the
// estimation experiments. All generators are seeded so every run of the
// benchmark harness sees identical data.
//
// The paper's Section 8 experiment uses four tables S, M, B, G whose join
// columns have column cardinality equal to the table cardinality; Generate
// with DistPermutation reproduces that exactly (each value appears exactly
// once, so uniformity and containment hold with equality). The Zipf
// generator supports the skew ablations motivated by the paper's
// future-work discussion of Zipfian distributions.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/storage"
)

// Distribution selects how values of a generated column are drawn.
type Distribution int

const (
	// DistUniform draws values independently and uniformly from [0, Domain).
	DistUniform Distribution = iota
	// DistPermutation emits a random permutation of 0..Rows-1 (requires
	// Domain == Rows); every value appears exactly once, giving an exactly
	// uniform join column with d == ‖R‖.
	DistPermutation
	// DistSequential emits i mod Domain for row i: exactly uniform
	// frequencies with d == min(Domain, Rows).
	DistSequential
	// DistZipf draws from a generalized Zipf distribution over [0, Domain)
	// with skew parameter Theta (Theta = 0 degenerates to uniform).
	DistZipf
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistPermutation:
		return "permutation"
	case DistSequential:
		return "sequential"
	case DistZipf:
		return "zipf"
	default:
		return "unknown"
	}
}

// ColumnSpec describes one generated integer column.
type ColumnSpec struct {
	// Name is the column name.
	Name string
	// Dist selects the value distribution.
	Dist Distribution
	// Domain is the number of candidate distinct values; values are drawn
	// from [0, Domain). Containment across tables holds because domains are
	// prefixes of the integers.
	Domain int
	// Theta is the Zipf skew parameter (DistZipf only). Typical values are
	// 0 (uniform) through ~1 (heavily skewed).
	Theta float64
}

// TableSpec describes one generated table.
type TableSpec struct {
	// Name is the table name.
	Name string
	// Rows is the table cardinality.
	Rows int
	// Columns are the generated columns, in schema order.
	Columns []ColumnSpec
}

// Generate materializes the table described by spec using the given seed.
func Generate(spec TableSpec, seed int64) (*storage.Table, error) {
	if spec.Rows < 0 {
		return nil, fmt.Errorf("datagen: table %s: negative row count", spec.Name)
	}
	if len(spec.Columns) == 0 {
		return nil, fmt.Errorf("datagen: table %s: no columns", spec.Name)
	}
	defs := make([]storage.ColumnDef, len(spec.Columns))
	for i, cs := range spec.Columns {
		if cs.Name == "" {
			return nil, fmt.Errorf("datagen: table %s: column %d unnamed", spec.Name, i)
		}
		defs[i] = storage.ColumnDef{Name: cs.Name, Type: storage.TypeInt64}
	}
	schema, err := storage.NewSchema(defs...)
	if err != nil {
		return nil, fmt.Errorf("datagen: table %s: %w", spec.Name, err)
	}

	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, len(spec.Columns))
	for i, cs := range spec.Columns {
		vals, err := generateColumn(spec, cs, rng)
		if err != nil {
			return nil, err
		}
		cols[i] = vals
	}

	tbl := storage.NewTable(spec.Name, schema)
	tbl.Reserve(spec.Rows)
	row := make([]storage.Value, len(cols))
	for r := 0; r < spec.Rows; r++ {
		for c := range cols {
			row[c] = storage.Int64(cols[c][r])
		}
		if err := tbl.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

func generateColumn(spec TableSpec, cs ColumnSpec, rng *rand.Rand) ([]int64, error) {
	switch cs.Dist {
	case DistUniform:
		if cs.Domain <= 0 {
			return nil, fmt.Errorf("datagen: table %s: column %s: non-positive domain", spec.Name, cs.Name)
		}
		out := make([]int64, spec.Rows)
		for i := range out {
			out[i] = int64(rng.Intn(cs.Domain))
		}
		return out, nil
	case DistPermutation:
		if cs.Domain != 0 && cs.Domain != spec.Rows {
			return nil, fmt.Errorf("datagen: table %s: column %s: permutation requires domain == rows (%d != %d)",
				spec.Name, cs.Name, cs.Domain, spec.Rows)
		}
		out := make([]int64, spec.Rows)
		for i, p := range rng.Perm(spec.Rows) {
			out[i] = int64(p)
		}
		return out, nil
	case DistSequential:
		if cs.Domain <= 0 {
			return nil, fmt.Errorf("datagen: table %s: column %s: non-positive domain", spec.Name, cs.Name)
		}
		out := make([]int64, spec.Rows)
		for i := range out {
			out[i] = int64(i % cs.Domain)
		}
		return out, nil
	case DistZipf:
		if cs.Domain <= 0 {
			return nil, fmt.Errorf("datagen: table %s: column %s: non-positive domain", spec.Name, cs.Name)
		}
		z, err := NewZipf(rng, cs.Domain, cs.Theta)
		if err != nil {
			return nil, fmt.Errorf("datagen: table %s: column %s: %w", spec.Name, cs.Name, err)
		}
		out := make([]int64, spec.Rows)
		for i := range out {
			out[i] = int64(z.Next())
		}
		return out, nil
	default:
		return nil, fmt.Errorf("datagen: table %s: column %s: unknown distribution %d",
			spec.Name, cs.Name, int(cs.Dist))
	}
}

// Zipf draws from a generalized Zipf distribution: P(k) ∝ 1/(k+1)^theta for
// k in [0, n). theta = 0 is uniform; theta = 1 is the classic Zipf
// distribution from the paper's reference [17]. Sampling is by inverse
// transform over the precomputed CDF (O(log n) per draw).
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf creates a Zipf sampler over n values with skew theta >= 0.
func NewZipf(rng *rand.Rand, n int, theta float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("datagen: zipf needs n > 0, got %d", n)
	}
	if theta < 0 || math.IsNaN(theta) {
		return nil, fmt.Errorf("datagen: zipf needs theta >= 0, got %g", theta)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}, nil
}

// Next draws the next value in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PaperTables generates the four tables of the paper's Section 8
// experiment, optionally scaled down by scale (scale = 1 reproduces the
// paper's cardinalities ‖S‖=1000, ‖M‖=10000, ‖B‖=50000, ‖G‖=100000; scale =
// 10 divides each by 10). Each table has a single join column named after
// the table (s, m, b, g) whose column cardinality equals the table
// cardinality, realized as a permutation so the uniformity and containment
// assumptions hold exactly — which makes the "correct answer is exactly
// ⌈100/scale⌉" property of the paper's query hold exactly as well.
func PaperTables(scale int, seed int64) (s, m, b, g *storage.Table, err error) {
	if scale <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("datagen: scale must be positive, got %d", scale)
	}
	mk := func(name, col string, rows int, seed int64) (*storage.Table, error) {
		return Generate(TableSpec{
			Name: name,
			Rows: rows,
			Columns: []ColumnSpec{
				{Name: col, Dist: DistPermutation},
				{Name: "payload", Dist: DistUniform, Domain: 1 << 20},
			},
		}, seed)
	}
	if s, err = mk("S", "s", 1000/scale, seed+1); err != nil {
		return nil, nil, nil, nil, err
	}
	if m, err = mk("M", "m", 10000/scale, seed+2); err != nil {
		return nil, nil, nil, nil, err
	}
	if b, err = mk("B", "b", 50000/scale, seed+3); err != nil {
		return nil, nil, nil, nil, err
	}
	if g, err = mk("G", "g", 100000/scale, seed+4); err != nil {
		return nil, nil, nil, nil, err
	}
	return s, m, b, g, nil
}
