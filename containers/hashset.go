package containers

import (
	"math/bits"

	"onefile/internal/talloc"
)

// HashSet is a resizable separate-chaining hash set of uint64 keys — the
// paper's "wait-free resizable hash map" (§VI) and the workload of Fig. 11 —
// grown one bucket at a time by linear hashing.
//
// Buckets are sorted singly linked lists. With N buckets and L = ⌊log₂ N⌋,
// a key whose hash is h lives in bucket b = h mod 2^(L+1), or in b mod 2^L
// when b ≥ N. An Add that leaves more than hsLoadFactor keys per bucket
// splits bucket N − 2^L into a new bucket N: a stable partition of that one
// sorted chain by bit L of the hash, which stores only the links that
// change. A transaction of the set therefore writes O(chain) words, never
// O(size), and chains stay about hsLoadFactor nodes long at any size.
//
// Bucket heads live in segments reached through a directory. A new set has
// one bucket, in segment 0; segment k in 1…12 holds the buckets
// [2^(k−1), 2^k), and every later segment holds hsSegWords (4,096) buckets,
// one allocator block. The split that creates a segment's first bucket
// allocates it; no segment is ever freed. The directory starts at
// hsDirWords entries and doubles — one copy of its entries in that split's
// transaction — each time it fills, first at 16,384 buckets.
type HashSet struct {
	e    Engine
	desc Ptr // [0]=directory, [1]=bucket count N, [2]=size, [3]=layout tag
}

const (
	hsDir    = 0
	hsNBkt   = 1
	hsSize   = 2
	hsLayout = 3

	// hsLinear tags the directory layout. A set written before linear
	// hashing has a flat array of N ≤ 4,096 buckets (a power of two) in
	// word 0 and a zero word 3 (its descriptor was Alloc(3), a four-word
	// block); NewHashSet migrates it.
	hsLinear = 1

	hsSegShift = 12 // a full segment is one allocator block
	hsSegWords = 1 << hsSegShift
	hsDirWords = 16
	// hsBucketLimit is where splitting stops: a directory of one allocator
	// block, whose entries 0…12 hold the first 4,096 buckets and every later
	// entry a full segment.
	hsBucketLimit = (talloc.MaxPayload - hsSegShift) << hsSegShift
	// hsLoadFactor is the keys per bucket that trigger a split. Measured on
	// txn-wf against 1 and 4 (EXPERIMENTS.md, "A hash-set lookup walks one
	// or two nodes"): 2 had the lowest median read and write p99 of the three.
	hsLoadFactor = 2

	hnKey  = 0
	hnNext = 1
)

// A full segment must fit one block; hsBucketLimit keeps the directory to one.
var _ [talloc.MaxPayload - hsSegWords]struct{}

// NewHashSet attaches to (or creates in) root slot rootSlot of e. A set
// written with a flat bucket array is migrated to the directory layout
// first, in one transaction of O(1) stores.
func NewHashSet(e Engine, rootSlot int) *HashSet {
	h := &HashSet{e: e, desc: initRoot(e, rootSlot, func(tx Tx) Ptr {
		d := tx.Alloc(4)
		dir := tx.Alloc(hsDirWords)
		tx.Store(dir, uint64(tx.Alloc(1)))
		tx.Store(d+hsDir, uint64(dir))
		tx.Store(d+hsNBkt, 1)
		tx.Store(d+hsLayout, hsLinear)
		return d
	})}
	if e.Read(func(tx Tx) uint64 { return tx.Load(h.desc + hsLayout) }) != hsLinear {
		e.Update(func(tx Tx) uint64 { h.migrateTx(tx); return 0 })
	}
	return h
}

// migrateTx points a new directory into a flat bucket array. With N a power
// of two the bucket function above is the flat layout's hash(k) mod N, so
// every chain is already where it belongs, and the segments it needs are
// the array's pieces: at most 13 of them.
func (h *HashSet) migrateTx(tx Tx) {
	if tx.Load(h.desc+hsLayout) == hsLinear {
		return // another handle migrated it first
	}
	flat := tx.Load(h.desc + hsDir)
	n := tx.Load(h.desc + hsNBkt)
	dir := tx.Alloc(hsDirWords)
	for b := uint64(0); b < n; b = max(2*b, 1) {
		seg, _ := segOf(b)
		tx.Store(dir+Ptr(seg), flat+b)
	}
	tx.Store(h.desc+hsDir, uint64(dir))
	tx.Store(h.desc+hsLayout, hsLinear)
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

// bucketIndex is the bucket of hash hv in a table of n buckets.
func bucketIndex(hv, n uint64) uint64 {
	hi := uint64(1) << bits.Len64(n) // 2^(L+1)
	b := hv & (hi - 1)
	if b >= n {
		b &= hi>>1 - 1
	}
	return b
}

// segOf returns the directory entry and the offset within it of bucket b.
func segOf(b uint64) (seg, off uint64) {
	if b >= hsSegWords {
		return hsSegShift + b>>hsSegShift, b & (hsSegWords - 1)
	}
	l := uint64(bits.Len64(b)) // b is in [2^(l−1), 2^l), or 0 for l = 0
	return l, b &^ (1 << l >> 1)
}

// bucketWord returns the heap word holding the head of bucket b's chain.
func bucketWord(tx Tx, dir Ptr, b uint64) Ptr {
	seg, off := segOf(b)
	return Ptr(tx.Load(dir+Ptr(seg))) + Ptr(off)
}

// bucketOf returns the heap word holding the head pointer of k's chain.
func (h *HashSet) bucketOf(tx Tx, k uint64) Ptr {
	dir := Ptr(tx.Load(h.desc + hsDir))
	return bucketWord(tx, dir, bucketIndex(hashKey(k), tx.Load(h.desc+hsNBkt)))
}

// Add inserts k; it reports whether the set changed.
func (h *HashSet) Add(k uint64) bool {
	return h.e.Update(func(tx Tx) uint64 { return boolWord(h.AddTx(tx, k)) }) == 1
}

// AddTx inserts k as part of the caller's transaction.
func (h *HashSet) AddTx(tx Tx, k uint64) bool {
	slot := h.bucketOf(tx, k)
	var prev Ptr
	cur := Ptr(tx.Load(slot))
	for cur != 0 && tx.Load(cur+hnKey) < k {
		prev, cur = cur, Ptr(tx.Load(cur+hnNext))
	}
	if cur != 0 && tx.Load(cur+hnKey) == k {
		return false
	}
	n := tx.Alloc(2)
	tx.Store(n+hnKey, k)
	tx.Store(n+hnNext, uint64(cur))
	if prev == 0 {
		tx.Store(slot, uint64(n))
	} else {
		tx.Store(prev+hnNext, uint64(n))
	}
	size := tx.Load(h.desc+hsSize) + 1
	tx.Store(h.desc+hsSize, size)
	if nb := tx.Load(h.desc + hsNBkt); size > nb*hsLoadFactor && nb < hsBucketLimit {
		h.splitTx(tx, nb)
	}
	return true
}

// chainTail is where a chain being rebuilt ends: the word that links its
// last node, and the value that word holds now.
type chainTail struct {
	at  Ptr
	val uint64
}

// splitTx adds bucket n to a table of n buckets. The keys of bucket n − 2^L
// whose hash has bit L set move to it; both chains keep their order, so
// both stay sorted, and a link is stored only where it changes. Bucket n's
// word has never been written, so it holds zero.
func (h *HashSet) splitTx(tx Tx, n uint64) {
	dir := Ptr(tx.Load(h.desc + hsDir))
	if seg, off := segOf(n); off == 0 {
		if seg >= hsDirWords && seg&(seg-1) == 0 { // the directory is full
			grown := tx.Alloc(int(2 * seg))
			for i := Ptr(0); i < Ptr(seg); i++ {
				tx.Store(grown+i, tx.Load(dir+i))
			}
			tx.Free(dir)
			tx.Store(h.desc+hsDir, uint64(grown))
			dir = grown
		}
		tx.Store(dir+Ptr(seg), uint64(tx.Alloc(int(min(n, hsSegWords)))))
	}
	bit := uint64(1) << (bits.Len64(n) - 1)
	stay := chainTail{at: bucketWord(tx, dir, n-bit)}
	stay.val = tx.Load(stay.at)
	move := chainTail{at: bucketWord(tx, dir, n)}
	for cur := Ptr(stay.val); cur != 0; {
		next := tx.Load(cur + hnNext)
		t := &stay
		if hashKey(tx.Load(cur+hnKey))&bit != 0 {
			t = &move
		}
		if t.val != uint64(cur) {
			tx.Store(t.at, uint64(cur))
		}
		t.at, t.val = cur+hnNext, next
		cur = Ptr(next)
	}
	for _, t := range [...]chainTail{stay, move} {
		if t.val != 0 {
			tx.Store(t.at, 0)
		}
	}
	tx.Store(h.desc+hsNBkt, n+1)
}

// Remove deletes k; it reports whether the set changed.
func (h *HashSet) Remove(k uint64) bool {
	return h.e.Update(func(tx Tx) uint64 { return boolWord(h.RemoveTx(tx, k)) }) == 1
}

// RemoveTx deletes k as part of the caller's transaction.
func (h *HashSet) RemoveTx(tx Tx, k uint64) bool {
	slot := h.bucketOf(tx, k)
	var prev Ptr
	cur := Ptr(tx.Load(slot))
	for cur != 0 && tx.Load(cur+hnKey) < k {
		prev, cur = cur, Ptr(tx.Load(cur+hnNext))
	}
	if cur == 0 || tx.Load(cur+hnKey) != k {
		return false
	}
	next := tx.Load(cur + hnNext)
	if prev == 0 {
		tx.Store(slot, next)
	} else {
		tx.Store(prev+hnNext, next)
	}
	tx.Store(h.desc+hsSize, tx.Load(h.desc+hsSize)-1)
	tx.Free(cur)
	return true
}

// Contains reports whether k is in the set (read-only transaction).
func (h *HashSet) Contains(k uint64) bool {
	return h.e.Read(func(tx Tx) uint64 { return boolWord(h.ContainsTx(tx, k)) }) == 1
}

// ContainsTx reports membership inside the caller's transaction.
func (h *HashSet) ContainsTx(tx Tx, k uint64) bool {
	cur := Ptr(tx.Load(h.bucketOf(tx, k)))
	for cur != 0 && tx.Load(cur+hnKey) < k {
		cur = Ptr(tx.Load(cur + hnNext))
	}
	return cur != 0 && tx.Load(cur+hnKey) == k
}

// Len returns the number of keys.
func (h *HashSet) Len() int {
	return int(h.e.Read(func(tx Tx) uint64 { return tx.Load(h.desc + hsSize) }))
}

// Buckets returns the current bucket count (introspection for tests).
func (h *HashSet) Buckets() int {
	return int(h.e.Read(func(tx Tx) uint64 { return tx.Load(h.desc + hsNBkt) }))
}
