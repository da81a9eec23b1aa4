package containers

import "onefile/internal/tm"

// Queue is an unbounded FIFO queue of uint64 values, backed by a singly
// linked list inside the engine's transactional heap. Wrapped in a OneFile
// wait-free engine it is the paper's wait-free persistent queue (§V-B,
// Fig. 12); on any engine, operations on several queues can be composed
// into one atomic transaction with the *Tx methods.
type Queue struct {
	e    Engine
	desc Ptr // [0]=head, [1]=tail, [2]=length
}

// Queue descriptor and node layouts (word offsets).
const (
	qHead = 0
	qTail = 1
	qLen  = 2

	qnVal  = 0
	qnNext = 1
)

// NewQueue attaches to (or creates in) root slot rootSlot of e.
func NewQueue(e Engine, rootSlot int) *Queue {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr {
		return tx.Alloc(3)
	})
	return &Queue{e: e, desc: desc}
}

// Enqueue appends v in its own transaction.
func (q *Queue) Enqueue(v uint64) {
	q.e.Update(func(tx Tx) uint64 {
		q.EnqueueTx(tx, v)
		return 0
	})
}

// EnqueueTx appends v as part of the caller's transaction.
func (q *Queue) EnqueueTx(tx Tx, v uint64) {
	n := tx.Alloc(2)
	tx.Store(n+qnVal, v)
	tail := Ptr(tx.Load(q.desc + qTail))
	if tail == 0 {
		tx.Store(q.desc+qHead, uint64(n))
	} else {
		tx.Store(tail+qnNext, uint64(n))
	}
	tx.Store(q.desc+qTail, uint64(n))
	tx.Store(q.desc+qLen, tx.Load(q.desc+qLen)+1)
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue) Dequeue() (v uint64, ok bool) {
	return unpack(q.e.Update(func(tx Tx) uint64 {
		v, ok := q.DequeueTx(tx)
		return pack(v, ok)
	}))
}

// DequeueTx removes the oldest value as part of the caller's transaction.
func (q *Queue) DequeueTx(tx Tx) (v uint64, ok bool) {
	h := Ptr(tx.Load(q.desc + qHead))
	if h == 0 {
		return 0, false
	}
	v = tx.Load(h + qnVal)
	next := tx.Load(h + qnNext)
	tx.Store(q.desc+qHead, next)
	if next == 0 {
		tx.Store(q.desc+qTail, 0)
	}
	tx.Store(q.desc+qLen, tx.Load(q.desc+qLen)-1)
	tx.Free(h)
	return v, true
}

// Len returns the current length (a read-only transaction).
func (q *Queue) Len() int {
	return int(q.e.Read(func(tx Tx) uint64 { return tx.Load(q.desc + qLen) }))
}

// LenTx returns the length inside the caller's transaction.
func (q *Queue) LenTx(tx Tx) int { return int(tx.Load(q.desc + qLen)) }

// Peek returns the oldest value without removing it.
func (q *Queue) Peek() (v uint64, ok bool) {
	return unpack(q.e.Read(func(tx Tx) uint64 {
		h := Ptr(tx.Load(q.desc + qHead))
		if h == 0 {
			return pack(0, false)
		}
		return pack(tx.Load(h+qnVal), true)
	}))
}

// Drain removes every element in one transaction and returns how many were
// removed (a linearizable whole-queue operation no hand-made lock-free
// queue offers).
func (q *Queue) Drain() int {
	return int(q.e.Update(func(tx Tx) uint64 {
		n := 0
		for {
			if _, ok := q.DequeueTx(tx); !ok {
				break
			}
			n++
		}
		return uint64(n)
	}))
}

// Snapshot returns up to max queue values, oldest first, observed in one
// consistent read-only transaction — a linearizable traversal (§V-A).
func (q *Queue) Snapshot(max int) []uint64 {
	return tm.Collect(q.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		for h := Ptr(tx.Load(q.desc + qHead)); h != 0 && len(out) < max; h = Ptr(tx.Load(h + qnNext)) {
			out = append(out, tx.Load(h+qnVal))
		}
		return out
	})
}
