package containers

// HashSet is a resizable separate-chaining hash set of uint64 keys — the
// paper's "wait-free resizable hash map" (§VI) and the workload of Fig. 11.
// Buckets are sorted singly linked lists; when the load factor exceeds
// hsLoadFactor the table grows fourfold inside a single transaction, which
// a OneFile engine makes a wait-free, crash-atomic resize.
type HashSet struct {
	e    Engine
	desc Ptr // [0]=buckets block, [1]=bucket count, [2]=size
}

const (
	hsBuckets = 0
	hsNBkt    = 1
	hsSize    = 2

	hsInitialBuckets = 8
	hsMaxBuckets     = 4096 // one allocator block (talloc.MaxPayload)
	hsLoadFactor     = 4
	hsGrowth         = 4

	hnKey  = 0
	hnNext = 1
)

// NewHashSet attaches to (or creates in) root slot rootSlot of e.
func NewHashSet(e Engine, rootSlot int) *HashSet {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr {
		d := tx.Alloc(3)
		b := tx.Alloc(hsInitialBuckets)
		tx.Store(d+hsBuckets, uint64(b))
		tx.Store(d+hsNBkt, hsInitialBuckets)
		return d
	})
	return &HashSet{e: e, desc: desc}
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

// bucketOf returns the heap word holding the head pointer of k's chain.
func (h *HashSet) bucketOf(tx Tx, k uint64) Ptr {
	b := Ptr(tx.Load(h.desc + hsBuckets))
	n := tx.Load(h.desc + hsNBkt)
	return b + Ptr(hashKey(k)&(n-1))
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
	if nb := tx.Load(h.desc + hsNBkt); size > nb*hsLoadFactor && nb < hsMaxBuckets {
		newN := nb * hsGrowth
		if newN > hsMaxBuckets {
			newN = hsMaxBuckets // one allocator block is the ceiling
		}
		h.growTx(tx, newN)
	}
	return true
}

// growTx rehashes the table into newN buckets, all within the enclosing
// transaction (crash-atomic and, on OneFile, wait-free).
func (h *HashSet) growTx(tx Tx, newN uint64) {
	oldB := Ptr(tx.Load(h.desc + hsBuckets))
	oldN := tx.Load(h.desc + hsNBkt)
	newB := tx.Alloc(int(newN))
	for i := uint64(0); i < oldN; i++ {
		cur := Ptr(tx.Load(oldB + Ptr(i)))
		for cur != 0 {
			next := Ptr(tx.Load(cur + hnNext))
			k := tx.Load(cur + hnKey)
			// Insert node into its new chain, keeping chains sorted.
			slot := newB + Ptr(hashKey(k)&(newN-1))
			var prev Ptr
			c := Ptr(tx.Load(slot))
			for c != 0 && tx.Load(c+hnKey) < k {
				prev, c = c, Ptr(tx.Load(c+hnNext))
			}
			tx.Store(cur+hnNext, uint64(c))
			if prev == 0 {
				tx.Store(slot, uint64(cur))
			} else {
				tx.Store(prev+hnNext, uint64(cur))
			}
			cur = next
		}
	}
	tx.Store(h.desc+hsBuckets, uint64(newB))
	tx.Store(h.desc+hsNBkt, newN)
	tx.Free(oldB)
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
