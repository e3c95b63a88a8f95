// The hash join's build side: one flat table per partition, two arrays and
// no per-key allocation. An open-addressing slot array holds each distinct
// key once with the bounds of its rows, and one CSR (compressed row list)
// array holds the build rows grouped by key, ascending within each key — the
// row lists a map from key to appended rows would hold, in the same order.
package executor

import (
	"math/bits"
	"math/rand/v2"
)

// hashSeed salts every hash table's hash. It is drawn once per process, so
// no key set fixed in advance collides the same way in every run; what a
// join returns never depends on it.
var hashSeed = rand.Uint64()

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

// wordHash hashes a fixed-width key: an int64, or a float64's bits.
func wordHash[K int64 | uint64](seed uint64) func(K) uint64 {
	return func(k K) uint64 { return mix64(uint64(k) ^ seed) }
}

// strHash hashes a string eight bytes at a time through the mixer. Strings
// of one length never collide: each step is a bijection of the state.
func strHash(seed uint64) func(string) uint64 {
	return func(s string) uint64 {
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
}

// hashTable is the build side of one hash-join partition.
type hashTable[K comparable] struct {
	slots []hashSlot[K] // a power of two long and at most half full
	rows  []int         // build rows, grouped by key, ascending within a key
	hash  func(K) uint64
}

// hashSlot is one distinct key and its build rows, rows[lo:hi]. Every
// occupied slot has hi ≥ 1, so hi == 0 marks an empty one.
type hashSlot[K comparable] struct {
	key    K
	lo, hi int32
}

// newHashTable builds the table over the keys of the rows named by rows
// (nil: every row of keys), skipping the rows nulls flags. The caller keeps
// the build under 2^31 rows.
func newHashTable[K comparable](keys []K, nulls []bool, rows []int, hash func(K) uint64) hashTable[K] {
	n := rowCount(rows, len(keys))
	t := hashTable[K]{slots: make([]hashSlot[K], 1<<bits.Len(uint(max(2*n-1, 0)))), hash: hash}
	// Pass 1: find every row's slot and count each key's rows in hi.
	at := make([]int32, n)
	live := int32(0)
	for i := range at {
		r := rowAt(rows, i)
		if nulls != nil && nulls[r] {
			at[i] = -1
			continue
		}
		s := t.find(keys[r])
		t.slots[s].key = keys[r]
		t.slots[s].hi++
		at[i] = int32(s)
		live++
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
	return t
}

// find returns the slot holding k, or the empty slot where k belongs.
func (t *hashTable[K]) find(k K) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.hash(k) & mask
	for t.slots[i].hi != 0 && t.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the build rows whose key is k, in ascending row order; none
// if no build row has it.
func (t *hashTable[K]) lookup(k K) []int {
	s := &t.slots[t.find(k)]
	return t.rows[s.lo:s.hi]
}
