// The one typed hash kernel, shared by the hash join and GROUP BY: a flat
// table per build and no per-key allocation. One CSR (compressed row list)
// array holds the build rows grouped by key, ascending within each key — the
// row lists a map from key to appended rows would hold, in the same order —
// and a second array finds each key's run in it. A join probes the table;
// Aggregate reads its runs as groups. Over every row of a base column the
// CSR array is the column's shared sort permutation, whose runs of equal
// keys are already grouped, and only the second array is built (runIndex).
//
// The second array is dense or hashed, fixed per build by its rows' own
// non-NULL keys, never by statistics that may be wrong. An int64 or uint64
// build whose keys span (hi−lo+1) no more values than a hashed table would
// have slots is an offset array, a counting sort over the span: key lo+i
// owns rows[starts[i]:starts[i+1]], no key is stored, and a probe outside
// lo..hi clamps to an empty run past the end, so a probe is one subtraction,
// one min and two loads, with no hash, no probe chain and no branch on the
// data. Any other build hashes into an open-addressing array of slots, each
// holding its key and run, at most half full. No knob picks between them:
// the dense array is never the larger.
//
// Keys are hashed (or offset) a block at a time (hashKeys): one type switch
// per block, then a tight loop with the mixer inlined writes the block's
// hashes to a stack array, and the lookups run over the finished block.
package executor

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/storage"
)

// hashSeed salts every hash table's hash. It is drawn once per process, so
// no key set fixed in advance collides the same way in every run; what a
// join or a grouping returns never depends on it.
var hashSeed = rand.Uint64()

// hashBlock is how many keys hashKeys hashes per call: small enough that the
// block's hashes live in a stack array, large enough that the type switch
// and the call are paid once per block instead of once per key.
const hashBlock = 256

// mix64 is splitmix64's finaliser: a bijection on 64 bits under which every
// input bit reaches every output bit, so structured keys (sequential,
// multiples of 2^k) spread over the low bits a table index keeps.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// hashKeys writes to out[i] the hash of the key at position from+i of a row
// list over keys (nil: every row), for each i < len(out): on a dense table
// the key's offset from lo, clamped to the span, its run. Otherwise a
// fixed-width key (an int64, or a float64's bits) hashes as one mixed word
// under the seed, and a string eight bytes at a time through the mixer, so
// strings of one length never collide: each step is a bijection of the
// state.
func (t *hashTable[K]) hashKeys(keys []K, rows []int, from int, out []uint64) {
	if rows != nil {
		rows = rows[from : from+len(out)]
	} else {
		keys = keys[from : from+len(out)]
	}
	switch ks := any(keys).(type) {
	case []int64:
		hashWords(ks, rows, t.starts != nil, t.lo, t.span(), t.seed, out)
	case []uint64:
		hashWords(ks, rows, t.starts != nil, t.lo, t.span(), t.seed, out)
	case []string:
		for i := range out {
			out[i] = hashString(t.seed, ks[rowAt(rows, i)])
		}
	default:
		panic("executor: no hash for this key type")
	}
}

// hashWords is hashKeys for int64 and uint64 keys. A dense offset below lo
// wraps above the span, so one min clamps keys on either side.
func hashWords[W int64 | uint64](ks []W, rows []int, dense bool, lo, span, seed uint64, out []uint64) {
	if dense {
		for i := range out {
			out[i] = min(uint64(ks[rowAt(rows, i)])-lo, span)
		}
		return
	}
	for i := range out {
		out[i] = mix64(uint64(ks[rowAt(rows, i)]) ^ seed)
	}
}

func hashString(seed uint64, s string) uint64 {
	h := seed ^ uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = mix64(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mix64(h ^ tail)
}

// hashTable is the build side of one hash-join partition, or one grouping:
// dense (starts) or hashed (slots), never both.
type hashTable[K comparable] struct {
	starts []int32       // dense: key lo+i owns rows[starts[i]:starts[i+1]]; span+2 long
	slots  []hashSlot[K] // hashed: a power of two, at most half full
	rows   []int         // build rows, grouped by key, ascending within a key: shared in a runIndex
	seed   uint64
	lo     uint64 // a dense table's least key, as a word
}

// span is the number of keys lo..hi of a dense table: the offset every key
// outside them clamps to, whose run is empty.
func (t *hashTable[K]) span() uint64 { return uint64(max(len(t.starts)-2, 0)) }

// hashSlot is one distinct key and its build rows, rows[lo:hi]. Every
// occupied slot has hi ≥ 1, so hi == 0 marks an empty one, whose run
// rows[0:0] is empty.
type hashSlot[K comparable] struct {
	key    K
	lo, hi int32
}

// hashedSlots is the slot count of a hashed table over n build rows: the
// power of two above 2n−1, so the table is at most half full.
func hashedSlots(n int) int { return 1 << bits.Len(uint(max(2*n-1, 0))) }

// newHashTable builds the table over the keys of the rows named by rows
// (nil: every row of keys), skipping the rows nulls flags. The caller keeps
// the build under 2^31 rows.
func newHashTable[K comparable](keys []K, nulls []bool, rows []int, seed uint64) hashTable[K] {
	t := hashTable[K]{seed: seed}
	if t.shape(keys, nulls, rows, rowCount(rows, len(keys))); t.starts != nil {
		t.buildDense(keys, nulls, rows)
	} else {
		t.build(keys, nulls, rows)
	}
	return t
}

// shape sizes the table for n build rows, whose non-NULL keys are those of
// the rows: dense if the keys are int64 or uint64 and span no more values
// than a hashed table of n rows has slots, hashed otherwise.
func (t *hashTable[K]) shape(keys []K, nulls []bool, rows []int, n int) {
	slots := hashedSlots(n)
	var lo, hi uint64
	var ok bool
	switch ks := any(keys).(type) {
	case []int64:
		lo, hi, ok = keyRange(ks, nulls, rows)
	case []uint64:
		lo, hi, ok = keyRange(ks, nulls, rows)
	}
	// hi−lo wraps to the true distance, so a span of 2^64 cannot overflow.
	if ok && hi-lo < uint64(slots) {
		t.lo, t.starts = lo, make([]int32, hi-lo+3)
	} else {
		t.slots = make([]hashSlot[K], slots)
	}
}

// runIndex is the table over every row of column col of tbl as an index
// into the column's runs (storage.Table.ColumnOrder): its rows are the
// shared permutation past the NULLs, and keysOf derives one key per run. It
// is dense or hashed, over the same span or slot count, where newHashTable
// would be. ok is false where the runs cannot index the keys: two runs on
// one key (int64 read as float64 past 2^53), dense offsets that do not
// ascend with the runs (negative float64 bits).
func runIndex[K comparable](tbl *storage.Table, col int, keysOf func(*storage.Table, int, []int) []K, seed uint64) (t hashTable[K], ok bool) {
	o := tbl.ColumnOrder(col)
	ends := o.Ends[min(o.Nulls, 1):]
	heads := make([]int, len(ends))
	for i, at := 0, o.Nulls; i < len(ends); at, i = ends[i], i+1 {
		heads[i] = o.Perm[at]
	}
	keys := keysOf(tbl, col, heads)
	t = hashTable[K]{seed: seed, rows: o.Perm[o.Nulls:]}
	t.shape(keys, nil, nil, tbl.NumRows())
	next, start := uint64(0), int32(0) // the least dense offset still free; the run's start
	var hs [hashBlock]uint64
	for b := 0; b < len(keys); b += hashBlock {
		block := hs[:min(hashBlock, len(keys)-b)]
		t.hashKeys(keys, nil, b, block)
		for j, h := range block {
			end := int32(ends[b+j] - o.Nulls)
			if t.starts != nil {
				if h < next {
					return t, false
				}
				t.starts[h+1], next = end, h+1
			} else if s := &t.slots[t.find(keys[b+j], h)]; s.hi == 0 {
				*s = hashSlot[K]{keys[b+j], start, end}
			} else {
				return t, false
			}
			start = end
		}
	}
	// Offset i's run starts where the last run below it ends.
	for i := 1; i < len(t.starts); i++ {
		t.starts[i] = max(t.starts[i], t.starts[i-1])
	}
	return t, true
}

// keyRange returns the least and greatest non-NULL key of the rows, as
// words; ok is false if every row is NULL.
func keyRange[W int64 | uint64](ks []W, nulls []bool, rows []int) (lo, hi uint64, ok bool) {
	var l, h W
	for i := range rowCount(rows, len(ks)) {
		r := rowAt(rows, i)
		if nulls != nil && nulls[r] {
			continue
		}
		if !ok {
			l, h, ok = ks[r], ks[r], true
		}
		l, h = min(l, ks[r]), max(h, ks[r])
	}
	return uint64(l), uint64(h), ok
}

// buildDense lays the rows out by a counting sort over the span keys from
// lo: count each key's rows two places up, prefix-sum, which leaves key i's
// run start in starts[i+1], then place the rows in row order with
// starts[i+1] as key i's cursor, which leaves it at the run's end.
func (t *hashTable[K]) buildDense(keys []K, nulls []bool, rows []int) {
	n, span := rowCount(rows, len(keys)), t.span()
	var hs [hashBlock]uint64
	for b := 0; b < n; b += hashBlock {
		block := hs[:min(hashBlock, n-b)]
		t.hashKeys(keys, rows, b, block)
		for j, h := range block {
			if r := rowAt(rows, b+j); nulls == nil || !nulls[r] {
				t.starts[h+2]++
			}
		}
	}
	for i := 1; i < len(t.starts); i++ {
		t.starts[i] += t.starts[i-1]
	}
	t.rows = make([]int, t.starts[span+1])
	for b := 0; b < n; b += hashBlock {
		block := hs[:min(hashBlock, n-b)]
		t.hashKeys(keys, rows, b, block)
		for j, h := range block {
			if r := rowAt(rows, b+j); nulls == nil || !nulls[r] {
				t.rows[t.starts[h+1]] = r
				t.starts[h+1]++
			}
		}
	}
}

// build lays the rows out in the hashed slot array, in slot order.
func (t *hashTable[K]) build(keys []K, nulls []bool, rows []int) {
	n := rowCount(rows, len(keys))
	// Pass 1: find every row's slot and count each key's rows in hi.
	at := make([]int32, n)
	live := int32(0)
	var hs [hashBlock]uint64
	for b := 0; b < n; b += hashBlock {
		block := hs[:min(hashBlock, n-b)]
		t.hashKeys(keys, rows, b, block)
		for j, h := range block {
			i := b + j
			r := rowAt(rows, i)
			if nulls != nil && nulls[r] {
				at[i] = -1
				continue
			}
			s := t.find(keys[r], h)
			t.slots[s].key = keys[r]
			t.slots[s].hi++
			at[i] = int32(s)
			live++
		}
	}
	// Lay each key's run out in slot order; lo and hi both start at the run.
	next := int32(0)
	for s := range t.slots {
		if c := t.slots[s].hi; c > 0 {
			t.slots[s].lo, t.slots[s].hi = next, next
			next += c
		}
	}
	// Pass 2: fill the runs in row order, hi advancing to each run's end.
	t.rows = make([]int, live)
	for i, s := range at {
		if s >= 0 {
			t.rows[t.slots[s].hi] = rowAt(rows, i)
			t.slots[s].hi++
		}
	}
}

// find returns the slot of a hashed table holding k, whose hash is h, or
// the empty slot where k belongs.
func (t *hashTable[K]) find(k K, h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].hi != 0 && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// run returns the bounds in rows of the build rows whose key is k, with
// hash (or dense offset) h: an empty run if no build row has it.
func (t *hashTable[K]) run(k K, h uint64) (lo, hi int32) {
	if t.starts != nil {
		return t.starts[h], t.starts[h+1]
	}
	s := &t.slots[t.find(k, h)]
	return s.lo, s.hi
}

// matches counts the build rows of a dense table matching the probe rows at
// positions from.. of a row list over keys (nil: every row), whose offsets
// are hashes; a NULL row (nulls) matches none. It is one subtraction per
// row with no branch.
func (t *hashTable[K]) matches(nulls []bool, rows []int, from int, hashes []uint64) int {
	n, starts := 0, t.starts
	for j, h := range hashes {
		n += int(starts[h+1]-starts[h]) * notNull(nulls, rowAt(rows, from+j))
	}
	return n
}
