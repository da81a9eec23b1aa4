package containers

import "onefile/internal/tm"

// ListSet is a sorted singly-linked-list set of uint64 keys — the workload
// of the paper's Figs. 5 and 9. A sequential sorted list wrapped in a
// OneFile engine becomes the paper's wait-free linked-list set; the same
// code on a baseline engine is the comparison subject.
type ListSet struct {
	e    Engine
	desc Ptr // [0]=head, [1]=size
}

const (
	lsHead = 0
	lsSize = 1

	lnKey  = 0
	lnNext = 1
)

// NewListSet attaches to (or creates in) root slot rootSlot of e.
func NewListSet(e Engine, rootSlot int) *ListSet {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr { return tx.Alloc(2) })
	return &ListSet{e: e, desc: desc}
}

// locate returns the first node with key >= k and its predecessor (0 if
// none), reading through tx.
func (s *ListSet) locate(tx Tx, k uint64) (prev, cur Ptr) {
	cur = Ptr(tx.Load(s.desc + lsHead))
	for cur != 0 {
		if tx.Load(cur+lnKey) >= k {
			return prev, cur
		}
		prev, cur = cur, Ptr(tx.Load(cur+lnNext))
	}
	return prev, 0
}

// Add inserts k; it reports whether the set changed.
func (s *ListSet) Add(k uint64) bool {
	return s.e.Update(func(tx Tx) uint64 { return boolWord(s.AddTx(tx, k)) }) == 1
}

// AddTx inserts k as part of the caller's transaction.
func (s *ListSet) AddTx(tx Tx, k uint64) bool {
	prev, cur := s.locate(tx, k)
	if cur != 0 && tx.Load(cur+lnKey) == k {
		return false
	}
	n := tx.Alloc(2)
	tx.Store(n+lnKey, k)
	tx.Store(n+lnNext, uint64(cur))
	if prev == 0 {
		tx.Store(s.desc+lsHead, uint64(n))
	} else {
		tx.Store(prev+lnNext, uint64(n))
	}
	tx.Store(s.desc+lsSize, tx.Load(s.desc+lsSize)+1)
	return true
}

// Remove deletes k; it reports whether the set changed.
func (s *ListSet) Remove(k uint64) bool {
	return s.e.Update(func(tx Tx) uint64 { return boolWord(s.RemoveTx(tx, k)) }) == 1
}

// RemoveTx deletes k as part of the caller's transaction.
func (s *ListSet) RemoveTx(tx Tx, k uint64) bool {
	prev, cur := s.locate(tx, k)
	if cur == 0 || tx.Load(cur+lnKey) != k {
		return false
	}
	next := tx.Load(cur + lnNext)
	if prev == 0 {
		tx.Store(s.desc+lsHead, next)
	} else {
		tx.Store(prev+lnNext, next)
	}
	tx.Store(s.desc+lsSize, tx.Load(s.desc+lsSize)-1)
	tx.Free(cur)
	return true
}

// Contains reports whether k is in the set (read-only transaction).
func (s *ListSet) Contains(k uint64) bool {
	return s.e.Read(func(tx Tx) uint64 { return boolWord(s.ContainsTx(tx, k)) }) == 1
}

// ContainsTx reports membership inside the caller's transaction.
func (s *ListSet) ContainsTx(tx Tx, k uint64) bool {
	_, cur := s.locate(tx, k)
	return cur != 0 && tx.Load(cur+lnKey) == k
}

// Len returns the number of keys.
func (s *ListSet) Len() int {
	return int(s.e.Read(func(tx Tx) uint64 { return tx.Load(s.desc + lsSize) }))
}

// Keys returns up to max keys in ascending order from one consistent
// read-only transaction.
func (s *ListSet) Keys(max int) []uint64 {
	return tm.Collect(s.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		for cur := Ptr(tx.Load(s.desc + lsHead)); cur != 0 && len(out) < max; cur = Ptr(tx.Load(cur + lnNext)) {
			out = append(out, tx.Load(cur+lnKey))
		}
		return out
	})
}
