package containers

import "onefile/internal/tm"

// TreeMap is an ordered uint64 → uint64 map backed by the same red-black
// tree machinery as RBTree — the paper's §VI "other containers can be
// implemented" made concrete. On a wait-free engine every method is
// wait-free; on a persistent engine the map is durable. Iteration in key
// order is a single consistent read-only transaction.
type TreeMap struct {
	t RBTree
}

// NewTreeMap attaches to (or creates in) root slot rootSlot of e.
func NewTreeMap(e Engine, rootSlot int) *TreeMap {
	return &TreeMap{t: *NewRBTree(e, rootSlot)}
}

// Put sets k → v and returns the previous value, if any.
func (m *TreeMap) Put(k, v uint64) (prev uint64, existed bool) {
	return unpack(m.t.e.Update(func(tx Tx) uint64 {
		p, ok := m.PutTx(tx, k, v)
		return pack(p, ok)
	}))
}

// PutTx sets k → v inside the caller's transaction.
func (m *TreeMap) PutTx(tx Tx, k, v uint64) (prev uint64, existed bool) {
	return m.t.putTx(tx, k, v, true)
}

// Get returns the value mapped to k.
func (m *TreeMap) Get(k uint64) (v uint64, ok bool) {
	return unpack(m.t.e.Read(func(tx Tx) uint64 {
		v, ok := m.GetTx(tx, k)
		return pack(v, ok)
	}))
}

// GetTx reads k inside the caller's transaction.
func (m *TreeMap) GetTx(tx Tx, k uint64) (v uint64, ok bool) {
	n := m.t.findNode(tx, k)
	if n == m.t.nilNode(tx) {
		return 0, false
	}
	return tx.Load(n + tnVal), true
}

// Delete removes k and returns the value it mapped to, if any.
func (m *TreeMap) Delete(k uint64) (prev uint64, existed bool) {
	return unpack(m.t.e.Update(func(tx Tx) uint64 {
		p, ok := m.DeleteTx(tx, k)
		return pack(p, ok)
	}))
}

// DeleteTx removes k inside the caller's transaction.
func (m *TreeMap) DeleteTx(tx Tx, k uint64) (prev uint64, existed bool) {
	n := m.t.findNode(tx, k)
	if n == m.t.nilNode(tx) {
		return 0, false
	}
	prev = tx.Load(n + tnVal)
	m.t.removeNode(tx, n) // the node in hand: one root-to-leaf walk per delete, not two
	return prev, true
}

// Len returns the number of entries.
func (m *TreeMap) Len() int { return m.t.Len() }

// Entry is one key/value pair of a range scan.
type Entry struct {
	Key, Val uint64
}

// Range returns up to max entries with Key in [lo, hi], ascending, from one
// consistent read-only transaction — a linearizable range query.
func (m *TreeMap) Range(lo, hi uint64, max int) []Entry {
	packed := tm.Collect(m.t.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		nilN := m.t.nilNode(tx)
		var walk func(n Ptr)
		walk = func(n Ptr) {
			if n == nilN || len(out) >= 2*max {
				return
			}
			k := key(tx, n)
			if k > lo {
				walk(left(tx, n))
			}
			if k >= lo && k <= hi && len(out) < 2*max {
				out = append(out, k, tx.Load(n+tnVal))
			}
			if k < hi {
				walk(right(tx, n))
			}
		}
		walk(m.t.root(tx))
		return out
	})
	out := make([]Entry, 0, len(packed)/2)
	for i := 0; i+1 < len(packed); i += 2 {
		out = append(out, Entry{Key: packed[i], Val: packed[i+1]})
	}
	return out
}

// CheckInvariants verifies the underlying red-black invariants (test aid).
func (m *TreeMap) CheckInvariants() error { return m.t.CheckInvariants() }
