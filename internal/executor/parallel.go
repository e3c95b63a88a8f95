package executor

import (
	"runtime"

	"repro/internal/storage"
	"repro/internal/workpool"
)

// Fault-injection probe points inside parallel worker goroutines. They
// fire at the start of each chunk task, so tests can inject failures and
// panics into the middle of a parallel operator and assert clean shutdown.
const (
	// PointScanChunk fires in the worker goroutine at the start of each
	// parallel scan chunk.
	PointScanChunk = "executor.scan.chunk"
	// PointJoinChunk fires in the worker goroutine at the start of each
	// parallel join task: a hash-join probe chunk or a nested-loops outer
	// chunk.
	PointJoinChunk = "executor.join.chunk"
)

// minChunkRows is the smallest chunk a parallel operator will create:
// below this, per-chunk bookkeeping dominates the row work.
const minChunkRows = 64

// resolveWorkers returns the parallelism degree for this executor:
// SetWorkers wins, then the governor's Limits.Workers, then GOMAXPROCS.
func (e *Executor) resolveWorkers() int {
	if e.workers > 0 {
		return e.workers
	}
	if w := e.gov.Workers(); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// chunkRanges splits [0, n) into contiguous [start, end) ranges of at
// least minChunkRows (except the remainder), targeting a few chunks per
// worker so stragglers rebalance.
func chunkRanges(n, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	target := workers * 4
	size := (n + target - 1) / target
	if size < minChunkRows {
		size = minChunkRows
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// chunkSink is the private output of one chunk of a chunk-parallel
// operator. Chunks never share a sink, so bodies write it without
// synchronisation, while every chunk ticks the one shared governor so
// budget accounting stays exact.
type chunkSink struct {
	out   *storage.Table
	stats Stats
	// origin names the probe row behind each row of out. Only hash-join
	// probes over a probe-row list fill it: the spill policy needs it to
	// merge partition outputs back into probe order.
	origin []int
}

// chunked is the worker policy of every parallel operator: it runs body
// over the positions [0, n) — in one call when one worker or one chunk
// suffices, otherwise per chunk on the worker pool, consulting the fault
// point in each worker goroutine — and concatenates the chunk sinks in
// chunk order. The result is therefore row-for-row identical to the serial
// run, and so are the work counters folded into stats.
func (e *Executor) chunked(n int, point, name string, schema *storage.Schema, stats *Stats,
	body func(start, end int, sink *chunkSink) error) (*chunkSink, error) {
	workers := e.resolveWorkers()
	ranges := chunkRanges(n, workers)
	if workers <= 1 || len(ranges) <= 1 {
		ranges = [][2]int{{0, n}}
	}
	sinks := make([]chunkSink, len(ranges))
	run := func(i int) error {
		sinks[i].out = storage.NewTable(name, schema)
		return body(ranges[i][0], ranges[i][1], &sinks[i])
	}
	var err error
	if len(ranges) == 1 {
		err = run(0)
	} else {
		err = workpool.Run(workers, len(ranges), func(i int) error {
			if err := e.probe(point); err != nil {
				return err
			}
			return run(i)
		})
	}
	if err != nil {
		return nil, err
	}
	merged := &sinks[0]
	stats.Add(merged.stats)
	rest := 0
	for i := 1; i < len(sinks); i++ {
		rest += sinks[i].out.NumRows()
	}
	merged.out.Reserve(rest)
	for i := 1; i < len(sinks); i++ {
		if err := merged.out.AppendTable(sinks[i].out); err != nil {
			return nil, err
		}
		merged.origin = append(merged.origin, sinks[i].origin...)
		stats.Add(sinks[i].stats)
	}
	return merged, nil
}
