// The spill partition policy of the hash join. When a build side would
// not fit the query's byte budget (governor.Limits.MaxMemory) — or exceeds
// the planner's estimate-informed reservation, the early trip for wildly
// underestimated joins — the join switches to Grace-style recursive
// partitioning: build rows are hashed into partitions and written to
// crc32-checksummed spill runs through the durable.AtomicWriteFile
// discipline, then each partition is joined within budget by the same
// kernel the in-memory join runs (hashSpec.join) and the per-partition
// outputs are merged back into the exact serial row order.
//
// Only the build side goes to disk: the probe side is already
// materialized by the operator-at-a-time executor (its bytes are on the
// ledger regardless), so spilling it would cost I/O and free nothing;
// its rows are routed to partitions as in-memory index lists instead.
//
// Bit-identity with the in-memory join is load-bearing (the differential
// harness referees it): a probe row's equality key lands in exactly one
// partition, partition files preserve build-row order, and the final
// merge interleaves partition outputs by original probe-row index — so
// rows, order, TuplesScanned, Comparisons, and governor tuple/row
// charges all match the serial hash join exactly. Only the bytes ledger
// (and the spill counters) differ, by design.
package executor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/storage"
)

// Fault-injection probe points of the spill path. Arm them with an error
// or a DiskFault payload; every failure surfaces as a typed ErrMemory
// (the query could not be served within its byte budget) with no partial
// rows.
const (
	// PointSpillWrite fires before each spill run is written. A DiskFault
	// payload with ShortWrite >= 0 leaves a torn run file behind, as a
	// process kill mid-write would; the crash-recovery sweep must collect
	// it.
	PointSpillWrite = "executor.spill.write"
	// PointSpillRead fires before each spill run is read back.
	PointSpillRead = "executor.spill.read"
	// PointSpillRemove fires before the per-query spill directory is
	// removed on completion. An injected error models a crash during
	// cleanup: the runs stay on disk for the els.Open sweep.
	PointSpillRemove = "executor.spill.remove"
)

// SpillSuffix is the extension of spill run files. Recovery (els.Open)
// sweeps orphaned files with this suffix out of the spill directory; the
// suffix is defined next to that sweep so the two cannot drift.
const SpillSuffix = durable.SpillSuffix

const (
	// maxSpillDepth bounds recursive re-partitioning. A partition still
	// over budget at the bottom (a single pathologically hot key cannot
	// be split by rehashing) is built in memory anyway: the budget is
	// overrun rather than the query failed, and the overrun is visible on
	// the bytes ledger.
	maxSpillDepth = 4
	// maxSpillParts caps the partition fan-out per level.
	maxSpillParts = 32
	minSpillParts = 2
)

// SetSpillDir sets the directory under which per-query spill
// subdirectories are created. Empty (the default) falls back to the
// operating system's temp directory. Call before Execute.
func (e *Executor) SetSpillDir(dir string) { e.spillDir = dir }

func (e *Executor) spillRoot() string {
	if e.spillDir != "" {
		return e.spillDir
	}
	return os.TempDir()
}

// spillFail wraps a spill-path failure into the memory taxonomy: the
// query could not be kept within its byte budget because the spill
// machinery failed.
func spillFail(op string, err error) error {
	return fmt.Errorf("%w: spill %s: %w", governor.ErrMemory, op, err)
}

// spillProbe consults a spill fault point, preferring the governor's own
// taxonomy error when the query is already dead. It returns the
// DiskFault short-write prefix length (-1 for none) alongside the
// injected error, letting the write site leave a torn file behind
// exactly as durable's disk probes do.
func (e *Executor) spillProbe(point string) (short int, err error) {
	f, ok := faultinject.Fire(point)
	if !ok {
		return -1, nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-e.gov.Context().Done():
			t.Stop()
		}
	}
	if gerr := e.gov.Err(); gerr != nil {
		return -1, gerr
	}
	if f.PanicValue != nil {
		panic(f.PanicValue)
	}
	short = -1
	err = f.Err
	if df, isDisk := f.Payload.(faultinject.DiskFault); isDisk {
		short = df.ShortWrite
		if err == nil {
			err = faultinject.ErrCrash
		}
	}
	return short, err
}

// spillPart routes a join key to one of p partitions. The hash is
// salted by recursion depth so a partition that must re-split does not
// rehash onto itself (FNV-1a over the salt byte then the key).
func spillPart(key string, p, salt int) int {
	h := uint32(2166136261)
	h ^= uint32(salt)
	h *= 16777619
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(p))
}

// spillPartitions sizes the partition fan-out so each partition targets
// about a quarter of the budget.
func spillPartitions(need, budget int64) int {
	if budget <= 0 {
		return minSpillParts
	}
	quantum := budget / 4
	if quantum < 1 {
		quantum = 1
	}
	p := int(need/quantum) + 1
	if p < minSpillParts {
		p = minSpillParts
	}
	if p > maxSpillParts {
		p = maxSpillParts
	}
	return p
}

// encodeValue appends one value to a spill run payload: a null marker
// byte, then the typed payload (int64/float64 little-endian, bool one
// byte, string u32 length prefix).
func encodeValue(dst []byte, v storage.Value) []byte {
	if v.IsNull() {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	switch v.Type() {
	case storage.TypeInt64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case storage.TypeFloat64:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case storage.TypeBool:
		if v.BoolVal() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case storage.TypeString:
		s := v.Str()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// encodeVals appends one boxed row to a spill run payload.
func encodeVals(dst []byte, vals []storage.Value) []byte {
	for _, v := range vals {
		dst = encodeValue(dst, v)
	}
	return dst
}

var errSpillCorrupt = fmt.Errorf("spill run corrupt")

// decodeRow decodes one row off the front of a spill run payload into
// vals (reused across calls), returning the remaining payload.
func decodeRow(buf []byte, schema *storage.Schema, vals []storage.Value) ([]storage.Value, []byte, error) {
	vals = vals[:0]
	for c := 0; c < schema.NumColumns(); c++ {
		if len(buf) < 1 {
			return nil, nil, errSpillCorrupt
		}
		null := buf[0] == 1
		buf = buf[1:]
		t := schema.Column(c).Type
		if null {
			vals = append(vals, storage.Null(t))
			continue
		}
		switch t {
		case storage.TypeInt64:
			if len(buf) < 8 {
				return nil, nil, errSpillCorrupt
			}
			vals = append(vals, storage.Int64(int64(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case storage.TypeFloat64:
			if len(buf) < 8 {
				return nil, nil, errSpillCorrupt
			}
			vals = append(vals, storage.Float64(math.Float64frombits(binary.LittleEndian.Uint64(buf))))
			buf = buf[8:]
		case storage.TypeBool:
			if len(buf) < 1 {
				return nil, nil, errSpillCorrupt
			}
			vals = append(vals, storage.Bool(buf[0] == 1))
			buf = buf[1:]
		case storage.TypeString:
			if len(buf) < 4 {
				return nil, nil, errSpillCorrupt
			}
			n := int(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
			if len(buf) < n {
				return nil, nil, errSpillCorrupt
			}
			vals = append(vals, storage.String64(string(buf[:n])))
			buf = buf[n:]
		default:
			return nil, nil, errSpillCorrupt
		}
	}
	return vals, buf, nil
}

// spillWriter accumulates encoded rows for one partition and flushes
// them to checksummed run files once the buffer crosses its limit.
// Runs are numbered, so reading them back in sequence preserves the
// exact order rows were routed in.
type spillWriter struct {
	e      *Executor
	dir    string
	prefix string
	limit  int
	run    int
	buf    []byte
	bytes  int64 // payload bytes flushed to disk
	files  []string
}

func newSpillWriter(e *Executor, dir, prefix string, limit int) *spillWriter {
	return &spillWriter{e: e, dir: dir, prefix: prefix, limit: limit}
}

// flush writes the buffered payload as one run file: u32 payload length,
// u32 IEEE crc32 of the payload, payload — the same frame discipline the
// wire protocol and the WAL use — via durable.AtomicWriteFile.
func (w *spillWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	path := filepath.Join(w.dir, fmt.Sprintf("%s-%d%s", w.prefix, w.run, SpillSuffix))
	w.run++
	frame := make([]byte, 8+len(w.buf))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(w.buf)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(w.buf))
	copy(frame[8:], w.buf)
	if short, ferr := w.e.spillProbe(PointSpillWrite); ferr != nil {
		if short >= 0 && short < len(frame) {
			// Torn run: the simulated kill landed mid-write. Leave the
			// partial file for the recovery sweep, exactly as a real crash
			// would.
			_ = os.WriteFile(path, frame[:short], 0o644) //atomicwrite:allow deliberately torn: models a crash mid-write for the recovery sweep
		}
		return spillFail("write", ferr)
	}
	if err := durable.AtomicWriteFile(path, frame, 0o644); err != nil {
		return spillFail("write", err)
	}
	w.bytes += int64(len(w.buf))
	w.files = append(w.files, path)
	w.buf = w.buf[:0]
	return nil
}

// maybeFlush flushes once the buffer crosses the run limit.
func (w *spillWriter) maybeFlush() error {
	if len(w.buf) >= w.limit {
		return w.flush()
	}
	return nil
}

// readSpillRun reads one run file back and verifies its frame.
func (e *Executor) readSpillRun(path string) ([]byte, error) {
	if _, ferr := e.spillProbe(PointSpillRead); ferr != nil {
		return nil, spillFail("read", ferr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, spillFail("read", err)
	}
	if len(data) < 8 {
		return nil, spillFail("read", fmt.Errorf("%w: %s: truncated frame", errSpillCorrupt, filepath.Base(path)))
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if int(n) != len(data)-8 {
		return nil, spillFail("read", fmt.Errorf("%w: %s: length %d, want %d", errSpillCorrupt, filepath.Base(path), len(data)-8, n))
	}
	payload := data[8:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, spillFail("read", fmt.Errorf("%w: %s: checksum mismatch", errSpillCorrupt, filepath.Base(path)))
	}
	return payload, nil
}

// readRuns reads run files back in sequence — run order is the order rows
// were routed in — and hands each decoded row to fn; vals is reused across
// calls. Every failure of the read path comes back as a typed ErrMemory.
func (e *Executor) readRuns(files []string, schema *storage.Schema, fn func(vals []storage.Value) error) error {
	vals := make([]storage.Value, 0, schema.NumColumns())
	for _, f := range files {
		payload, err := e.readSpillRun(f)
		if err != nil {
			return err
		}
		for len(payload) > 0 {
			// Decoding revisits rows already counted in the routing pass, so
			// poll the governor without charging — counter parity with the
			// in-memory join is load-bearing.
			if err := e.gov.Err(); err != nil {
				return err
			}
			if vals, payload, err = decodeRow(payload, schema, vals); err != nil {
				return spillFail("read", err)
			}
			if err := fn(vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillRunLimit sizes one partition's run buffer: a quarter of the
// budget shared across the partitions, floored so tiny budgets still
// make progress.
func spillRunLimit(budget int64, parts int) int {
	limit := int(budget / (4 * int64(parts)))
	if limit < 4096 {
		limit = 4096
	}
	if limit > 1<<20 {
		limit = 1 << 20
	}
	return limit
}

// spillHashJoin is the Grace partition policy of the hash-join pipeline:
// the build side is partitioned into checksummed spill runs, probe rows
// are routed to matching in-memory index lists, each partition is joined
// within budget by the same kernel the in-memory join uses
// (re-partitioning recursively while over), and partition outputs merge
// back into exact probe-row order. Routing visits every row of both
// inputs once, as the in-memory policy does.
func (e *Executor) spillHashJoin(spec *hashSpec, right *storage.Table, need int64, stats *Stats) (out *storage.Table, err error) {
	root := e.spillRoot()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, spillFail("create dir", err)
	}
	dir, err := os.MkdirTemp(root, "q")
	if err != nil {
		return nil, spillFail("create dir", err)
	}
	defer func() {
		if _, perr := e.spillProbe(PointSpillRemove); perr != nil {
			// Simulated crash during cleanup: the runs stay behind for the
			// els.Open recovery sweep, and the query reports the failure.
			if err == nil {
				out, err = nil, spillFail("remove", perr)
			}
			return
		}
		os.RemoveAll(dir)
	}()

	budget := e.gov.MaxMemory()
	parts := spillPartitions(need, budget)
	limit := spillRunLimit(budget, parts)

	// The run buffers are working memory too: account for them while the
	// partitioning passes hold them.
	bufCharge := int64(limit) * int64(parts)
	e.gov.ChargeBytes(bufCharge)
	defer e.gov.ReleaseBytes(bufCharge)

	// Route build rows to partition run files, in row order. NULL keys
	// join nothing, so they are visited and dropped here.
	writers := make([]*spillWriter, parts)
	for p := range writers {
		writers[p] = newSpillWriter(e, dir, fmt.Sprintf("b%d", p), limit)
	}
	vals := make([]storage.Value, 0, right.Schema().NumColumns())
	for r := 0; r < right.NumRows(); r++ {
		if err := e.visit(stats); err != nil {
			return nil, err
		}
		vals = right.AppendRowTo(vals[:0], r)
		if vals[spec.rKey].IsNull() {
			continue
		}
		w := writers[spillPart(vals[spec.rKey].Key(), parts, 0)]
		w.buf = encodeVals(w.buf, vals)
		if err := w.maybeFlush(); err != nil {
			return nil, err
		}
	}
	if err := e.finishRuns(writers); err != nil {
		return nil, err
	}

	// Route probe rows to in-memory partition index lists, in row order
	// (each list therefore stays ascending in original index).
	lparts := make([][]int, parts)
	for l := 0; l < spec.left.NumRows(); l++ {
		if err := e.visit(stats); err != nil {
			return nil, err
		}
		v := spec.left.Value(l, spec.lKey)
		if v.IsNull() {
			continue
		}
		p := spillPart(v.Key(), parts, 0)
		lparts[p] = append(lparts[p], l)
	}
	merged, _, err := e.joinSpillPartitions(spec, dir, writers, lparts, stats, 1)
	return merged, err
}

// finishRuns flushes every partition's last run and records the spill.
func (e *Executor) finishRuns(writers []*spillWriter) error {
	var spilled int64
	for _, w := range writers {
		if err := w.flush(); err != nil {
			return err
		}
		spilled += w.bytes
	}
	e.gov.RecordSpill(spilled)
	return nil
}

// joinSpillPartitions joins each partition's runs against its probe-row
// list, then merges the outputs by original probe-row index to restore
// the serial emit order.
func (e *Executor) joinSpillPartitions(spec *hashSpec, dir string, writers []*spillWriter, lparts [][]int,
	stats *Stats, depth int) (*storage.Table, []int, error) {
	outs := make([]*storage.Table, 0, len(writers))
	origins := make([][]int, 0, len(writers))
	for p, w := range writers {
		out, origin, err := e.joinSpillPartition(spec, dir, w.files, w.bytes, lparts[p], stats, depth)
		if err != nil {
			return nil, nil, err
		}
		outs = append(outs, out)
		origins = append(origins, origin)
	}
	return e.mergeByOrigin(spec.outSchema, outs, origins)
}

// joinSpillPartition joins one partition's build runs against its probe
// index list. A partition still over budget re-partitions recursively
// (streaming rows file-to-file, never holding the oversized partition in
// memory) until maxSpillDepth.
func (e *Executor) joinSpillPartition(spec *hashSpec, dir string, files []string, payloadBytes int64,
	lrows []int, stats *Stats, depth int) (*storage.Table, []int, error) {
	if len(files) == 0 || len(lrows) == 0 {
		// No matches possible; the runs (if any) die with the query dir.
		// This also keeps an empty list from reaching the kernel, where
		// nil means "every left row".
		return storage.NewTable("join", spec.outSchema), nil, nil
	}
	used, _, _ := e.gov.MemoryUsage()
	if budget := e.gov.MaxMemory(); budget > 0 && used+payloadBytes > budget && depth < maxSpillDepth {
		return e.respillPartition(spec, dir, files, lrows, stats, depth)
	}

	part := storage.NewTable("spill", spec.buildSchema)
	err := e.readRuns(files, spec.buildSchema, func(vals []storage.Value) error {
		if err := part.AppendRow(vals...); err != nil {
			return spillFail("read", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	partBytes := part.ApproxBytes()
	e.gov.ChargeBytes(partBytes)
	defer e.gov.ReleaseBytes(partBytes)

	sink, err := spec.join(part, lrows, stats)
	if err != nil {
		return nil, nil, err
	}
	return sink.out, sink.origin, nil
}

// respillPartition splits an over-budget partition one level deeper:
// build rows stream from the parent runs into salted sub-partition runs,
// probe indices re-route in memory, and each sub-partition joins
// recursively. Sub-outputs merge by origin, so the parent sees the same
// order it would have produced without the extra level.
func (e *Executor) respillPartition(spec *hashSpec, dir string, files []string, lrows []int,
	stats *Stats, depth int) (*storage.Table, []int, error) {
	parts := minSpillParts * 2
	limit := spillRunLimit(e.gov.MaxMemory(), parts)
	writers := make([]*spillWriter, parts)
	for p := range writers {
		writers[p] = newSpillWriter(e, dir, fmt.Sprintf("d%d-%s-%d", depth, filepath.Base(files[0]), p), limit)
	}
	err := e.readRuns(files, spec.buildSchema, func(vals []storage.Value) error {
		w := writers[spillPart(vals[spec.rKey].Key(), parts, depth)]
		w.buf = encodeVals(w.buf, vals)
		return w.maybeFlush()
	})
	if err != nil {
		return nil, nil, err
	}
	if err := e.finishRuns(writers); err != nil {
		return nil, nil, err
	}
	subRows := make([][]int, parts)
	for _, l := range lrows {
		p := spillPart(spec.left.Value(l, spec.lKey).Key(), parts, depth)
		subRows[p] = append(subRows[p], l)
	}
	return e.joinSpillPartitions(spec, dir, writers, subRows, stats, depth+1)
}

// mergeByOrigin interleaves partition outputs by original probe-row
// index. Each origin index occurs in exactly one partition (its key
// routes to one partition), and within a partition origins ascend, so
// repeatedly taking the partition with the smallest current origin
// reconstructs the serial probe order exactly.
func (e *Executor) mergeByOrigin(schema *storage.Schema, outs []*storage.Table, origins [][]int) (*storage.Table, []int, error) {
	live := 0
	total := 0
	last := -1
	for p := range origins {
		total += len(origins[p])
		if len(origins[p]) > 0 {
			live = p
			last++
		}
	}
	if last <= 0 {
		// Zero or one non-empty partition: its output is already in order.
		if total == 0 {
			return storage.NewTable("join", schema), nil, nil
		}
		return outs[live], origins[live], nil
	}
	merged := storage.NewTable("join", schema)
	mergedOrigin := make([]int, 0, total)
	cursors := make([]int, len(outs))
	row := make([]storage.Value, 0, schema.NumColumns())
	for {
		// The merge re-appends rows the join loops already charged via
		// emit; poll for cancellation only, keeping counters bit-identical
		// to the in-memory path.
		if err := e.gov.Err(); err != nil {
			return nil, nil, err
		}
		best, bestOrigin := -1, int(^uint(0)>>1)
		for p := range outs {
			if cursors[p] < len(origins[p]) && origins[p][cursors[p]] < bestOrigin {
				best, bestOrigin = p, origins[p][cursors[p]]
			}
		}
		if best < 0 {
			return merged, mergedOrigin, nil
		}
		row = outs[best].AppendRowTo(row[:0], cursors[best])
		if err := merged.AppendRow(row...); err != nil {
			return nil, nil, err
		}
		mergedOrigin = append(mergedOrigin, bestOrigin)
		cursors[best]++
	}
}
