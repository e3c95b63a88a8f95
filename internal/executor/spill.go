// The budget's partition policy of the hash join. When the build side's
// hash table would not fit the query's byte budget
// (governor.Limits.MaxMemory) — or the build exceeds the planner's
// estimate-informed reservation, the early trip for wildly underestimated
// joins — the join switches to Grace-style recursive partitioning: both
// inputs are hashed on the join key into partitions, each partition is
// joined by the kernel the one-partition join runs (hashSpec.join) with a
// hash table over its share of the build only, and the partition outputs
// are merged back into the exact serial row order.
//
// Partitions are row lists over the two resident inputs, never copies and
// never files: the executor is operator-at-a-time, so both inputs are on
// the ledger before the join starts and stay until it returns. Writing them
// anywhere would cost I/O and free nothing; what partitioning bounds is the
// hash table.
//
// Bit-identity with the one-partition join is load-bearing (the
// differential harness referees it): equal keys land in one partition, row
// lists preserve input order, and the merge interleaves partition outputs
// by probe-row index — so rows, order, TuplesScanned, Comparisons, and
// governor tuple/row charges match the serial hash join exactly. Only the
// bytes ledger and the spill counters (partitioning passes, build bytes
// routed) differ, by design.
package executor

import (
	"bytes"
	"math"
	"slices"

	"repro/internal/storage"
)

const (
	// maxSpillDepth bounds recursive re-partitioning. A partition still
	// over budget at the bottom (a single pathologically hot key cannot
	// be split by rehashing) is built anyway: the budget is overrun rather
	// than the query failed, and the overrun is visible on the bytes
	// ledger.
	maxSpillDepth = 4
	// maxSpillParts caps the partition fan-out per level.
	maxSpillParts = 32
	minSpillParts = 2
	// noPart marks a row with a NULL key: it joins nothing, so routing
	// drops it.
	noPart = math.MaxUint8
)

// SetSpillDir does nothing and is kept for callers written against the
// spill-to-disk hash join: the partition policy holds its partitions in
// memory and never touches the file system.
func (e *Executor) SetSpillDir(dir string) {}

// spillPart routes a key hash to one of p partitions. The hash is salted by
// recursion depth so a partition that must re-split does not rehash onto
// itself, and finished with splitmix64's mixer so every bit of key and salt
// reaches the low bits the modulo keeps.
func spillPart(h uint64, p, salt int) uint8 {
	return uint8(mix64(h+uint64(salt+1)*0x9E3779B97F4A7C15) % uint64(p))
}

// spillQuantum is the hash-table size partitions are cut to: a sixteenth of
// the budget. Partitions are row lists, so opening one costs nothing and the
// fan-out need not be held down; what a finer cut buys is a smaller table
// and shorter lists on the ledger next to the resident inputs.
func spillQuantum(budget int64) int64 {
	return max(budget/16, 1)
}

// spillPartitions sizes the fan-out that cuts need bytes of build side into
// partitions of about a quantum each.
func spillPartitions(need, budget int64) int {
	p := need/spillQuantum(budget) + 1
	return int(min(max(p, minSpillParts), maxSpillParts))
}

// route assigns the rows of t named by rows (nil: every row) a partition id
// each by their join key. Keys the hash join would match hash alike, so rows
// that could join always share a partition: with numeric set (an int64 key
// joined to a float64 one) every key hashes as the float64 it is matched as.
func route(t *storage.Table, col int, rows []int, parts, salt int, numeric bool) []uint8 {
	d := t.ColumnData(col)
	ids := make([]uint8, rowCount(rows, t.NumRows()))
	for i := range ids {
		switch r := rowAt(rows, i); {
		case d.Null(r):
			ids[i] = noPart
		case numeric:
			ids[i] = spillPart(floatBits(numericAt(d, r)), parts, salt)
		default:
			ids[i] = spillPart(d.KeyHash(r), parts, salt)
		}
	}
	return ids
}

// pick lists the rows routed to partition p, in their input order. The id
// scans are the standard library's vectorized byte search, so a pass per
// partition stays cheap next to hashing the rows once.
func pick(ids []uint8, rows []int, p uint8) []int {
	out := make([]int, 0, bytes.Count(ids, []byte{p}))
	for i := 0; len(out) < cap(out); i++ {
		i += bytes.IndexByte(ids[i:], p)
		out = append(out, rowAt(rows, i))
	}
	return out
}

// partitioner is one partitioned hash join in flight: the kernel, the
// build side's footprint per row, and the partition outputs so far.
type partitioner struct {
	e       *Executor
	spec    *hashSpec
	stats   *Stats
	need    int64 // the build side's deterministic footprint, as hashJoin sized it
	outs    []*storage.Table
	origins [][]int
	counted int // the rows of every partition, all a counting join keeps
}

// buildBytes apportions the build side's footprint to n of its rows.
func (pj *partitioner) buildBytes(n int) int64 {
	return pj.need * int64(n) / int64(max(pj.spec.right.NumRows(), 1))
}

// partitionJoin is the Grace partition policy of the hash-join pipeline:
// both inputs are routed to partitions, each partition is joined within
// budget by the same kernel the one-partition join uses (re-partitioning
// recursively while over), and partition outputs merge back into exact
// probe-row order; a counting join only adds up their rows. hashJoin has
// already visited both inputs.
func (e *Executor) partitionJoin(spec *hashSpec, need int64, stats *Stats) (*storage.Table, error) {
	pj := &partitioner{e: e, spec: spec, stats: stats, need: need}
	if err := pj.split(nil, nil, spillPartitions(need, e.gov.MaxMemory()), 0); err != nil {
		return nil, err
	}
	if spec.counts() {
		out := storage.NewLiveTable("join", spec.outSchema, spec.live)
		return out, out.AppendCount(pj.counted)
	}
	return mergeByOrigin(spec.outSchema, spec.live, pj.outs, pj.origins)
}

// split runs one partitioning pass over the given probe and build rows and
// joins the partitions one at a time. The pass holds a partition id per
// row and only the running partition's row lists, all on the ledger.
func (pj *partitioner) split(lrows, rrows []int, parts, depth int) error {
	gov, spec := pj.e.gov, pj.spec
	lids := route(spec.left, spec.lKey, lrows, parts, depth, spec.numeric)
	rids := route(spec.right, spec.rKey, rrows, parts, depth, spec.numeric)
	routing := int64(len(lids) + len(rids))
	gov.ChargeBytes(routing)
	defer gov.ReleaseBytes(routing)
	routed := 0
	for p := 0; p < parts; p++ {
		lp, rp := pick(lids, lrows, uint8(p)), pick(rids, rrows, uint8(p))
		routed += len(rp)
		if err := pj.join(lp, rp, depth+1); err != nil {
			return err
		}
	}
	gov.RecordSpill(pj.buildBytes(routed))
	return nil
}

// join joins one partition. A partition that came out larger than the
// quantum it was cut for (skewed keys) and whose hash table would overrun
// the budget re-partitions one level deeper, under a new salt, until
// maxSpillDepth.
func (pj *partitioner) join(lrows, rrows []int, depth int) error {
	if len(lrows) == 0 || len(rrows) == 0 {
		// No matches possible. This also keeps an empty list from reaching
		// the kernel, where nil means "every row".
		return nil
	}
	gov := pj.e.gov
	if err := gov.Err(); err != nil {
		return err
	}
	lists := int64(8 * (len(lrows) + len(rrows)))
	gov.ChargeBytes(lists)
	defer gov.ReleaseBytes(lists)
	build := pj.buildBytes(len(rrows))
	budget := gov.MaxMemory()
	if used, _, _ := gov.MemoryUsage(); used+build > budget && build > spillQuantum(budget) && depth < maxSpillDepth {
		return pj.split(lrows, rrows, spillPartitions(build, budget), depth)
	}
	gov.ChargeBytes(build)
	defer gov.ReleaseBytes(build)
	sink, err := pj.spec.join(rrows, lrows, pj.stats)
	if err != nil {
		return err
	}
	pj.counted += sink.out.NumRows()
	if len(sink.origin) > 0 {
		pj.outs = append(pj.outs, sink.out)
		pj.origins = append(pj.origins, sink.origin)
	}
	return nil
}

// mergeByOrigin interleaves partition outputs by original probe-row index.
// Each origin occurs in exactly one partition (its key routes to one) and
// within a partition origins ascend, so cutting every output into its runs
// of one origin and ordering the runs by origin reconstructs the serial
// probe order exactly. The rows were charged when the kernel emitted them;
// the merge charges nothing, and copies only the live columns.
func mergeByOrigin(schema *storage.Schema, live []bool, outs []*storage.Table, origins [][]int) (*storage.Table, error) {
	if len(outs) == 1 {
		return outs[0], nil
	}
	type run struct{ origin, part, start, end int }
	var runs []run
	total := 0
	for p, o := range origins {
		total += len(o)
		for start, end := 0, 0; start < len(o); start = end {
			for end = start + 1; end < len(o) && o[end] == o[start]; end++ {
			}
			runs = append(runs, run{o[start], p, start, end})
		}
	}
	slices.SortFunc(runs, func(a, b run) int { return a.origin - b.origin })
	merged := storage.NewLiveTable("join", schema, live)
	merged.Reserve(total)
	for _, r := range runs {
		if err := merged.AppendRange(outs[r.part], r.start, r.end); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
