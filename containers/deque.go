package containers

import "onefile/internal/tm"

// Deque is an unbounded double-ended queue of uint64 values, backed by a
// doubly linked list in the transactional heap — another instance of §VI's
// "other containers can be implemented": the sequential code below becomes
// wait-free (and, on a PTM, durable) purely by virtue of the engine.
type Deque struct {
	e    Engine
	desc Ptr // [0]=front, [1]=back, [2]=length
}

const (
	dqFront = 0
	dqBack  = 1
	dqLen   = 2

	dnVal  = 0
	dnPrev = 1
	dnNext = 2
)

// NewDeque attaches to (or creates in) root slot rootSlot of e.
func NewDeque(e Engine, rootSlot int) *Deque {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr { return tx.Alloc(3) })
	return &Deque{e: e, desc: desc}
}

// PushFront inserts v at the front.
func (d *Deque) PushFront(v uint64) {
	d.e.Update(func(tx Tx) uint64 {
		d.PushFrontTx(tx, v)
		return 0
	})
}

// PushFrontTx inserts v at the front inside the caller's transaction.
func (d *Deque) PushFrontTx(tx Tx, v uint64) {
	n := tx.Alloc(3)
	tx.Store(n+dnVal, v)
	front := Ptr(tx.Load(d.desc + dqFront))
	tx.Store(n+dnNext, uint64(front))
	if front == 0 {
		tx.Store(d.desc+dqBack, uint64(n))
	} else {
		tx.Store(front+dnPrev, uint64(n))
	}
	tx.Store(d.desc+dqFront, uint64(n))
	tx.Store(d.desc+dqLen, tx.Load(d.desc+dqLen)+1)
}

// PushBack inserts v at the back.
func (d *Deque) PushBack(v uint64) {
	d.e.Update(func(tx Tx) uint64 {
		d.PushBackTx(tx, v)
		return 0
	})
}

// PushBackTx inserts v at the back inside the caller's transaction.
func (d *Deque) PushBackTx(tx Tx, v uint64) {
	n := tx.Alloc(3)
	tx.Store(n+dnVal, v)
	back := Ptr(tx.Load(d.desc + dqBack))
	tx.Store(n+dnPrev, uint64(back))
	if back == 0 {
		tx.Store(d.desc+dqFront, uint64(n))
	} else {
		tx.Store(back+dnNext, uint64(n))
	}
	tx.Store(d.desc+dqBack, uint64(n))
	tx.Store(d.desc+dqLen, tx.Load(d.desc+dqLen)+1)
}

// PopFront removes and returns the front value.
func (d *Deque) PopFront() (uint64, bool) {
	return unpack(d.e.Update(func(tx Tx) uint64 {
		v, ok := d.PopFrontTx(tx)
		return pack(v, ok)
	}))
}

// PopFrontTx removes the front value inside the caller's transaction.
func (d *Deque) PopFrontTx(tx Tx) (uint64, bool) {
	front := Ptr(tx.Load(d.desc + dqFront))
	if front == 0 {
		return 0, false
	}
	v := tx.Load(front + dnVal)
	next := Ptr(tx.Load(front + dnNext))
	tx.Store(d.desc+dqFront, uint64(next))
	if next == 0 {
		tx.Store(d.desc+dqBack, 0)
	} else {
		tx.Store(next+dnPrev, 0)
	}
	tx.Store(d.desc+dqLen, tx.Load(d.desc+dqLen)-1)
	tx.Free(front)
	return v, true
}

// PopBack removes and returns the back value.
func (d *Deque) PopBack() (uint64, bool) {
	return unpack(d.e.Update(func(tx Tx) uint64 {
		v, ok := d.PopBackTx(tx)
		return pack(v, ok)
	}))
}

// PopBackTx removes the back value inside the caller's transaction.
func (d *Deque) PopBackTx(tx Tx) (uint64, bool) {
	back := Ptr(tx.Load(d.desc + dqBack))
	if back == 0 {
		return 0, false
	}
	v := tx.Load(back + dnVal)
	prev := Ptr(tx.Load(back + dnPrev))
	tx.Store(d.desc+dqBack, uint64(prev))
	if prev == 0 {
		tx.Store(d.desc+dqFront, 0)
	} else {
		tx.Store(prev+dnNext, 0)
	}
	tx.Store(d.desc+dqLen, tx.Load(d.desc+dqLen)-1)
	tx.Free(back)
	return v, true
}

// Len returns the current length.
func (d *Deque) Len() int {
	return int(d.e.Read(func(tx Tx) uint64 { return tx.Load(d.desc + dqLen) }))
}

// Front returns the front value without removing it.
func (d *Deque) Front() (uint64, bool) {
	return unpack(d.e.Read(func(tx Tx) uint64 {
		f := Ptr(tx.Load(d.desc + dqFront))
		if f == 0 {
			return pack(0, false)
		}
		return pack(tx.Load(f+dnVal), true)
	}))
}

// Back returns the back value without removing it.
func (d *Deque) Back() (uint64, bool) {
	return unpack(d.e.Read(func(tx Tx) uint64 {
		b := Ptr(tx.Load(d.desc + dqBack))
		if b == 0 {
			return pack(0, false)
		}
		return pack(tx.Load(b+dnVal), true)
	}))
}

// Snapshot returns up to max values front-to-back from one consistent
// read-only transaction, verifying the prev links on the way (test aid and
// linearizable traversal in one).
func (d *Deque) Snapshot(max int) []uint64 {
	return tm.Collect(d.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		var prev Ptr
		for n := Ptr(tx.Load(d.desc + dqFront)); n != 0 && len(out) < max; n = Ptr(tx.Load(n + dnNext)) {
			if Ptr(tx.Load(n+dnPrev)) != prev {
				// A broken back-link is a structural bug; surface it as
				// an impossible value rather than panicking in a reader.
				return []uint64{^uint64(0)}
			}
			out = append(out, tx.Load(n+dnVal))
			prev = n
		}
		return out
	})
}
