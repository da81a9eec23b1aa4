package containers

import "onefile/internal/tm"

// Batched entry points. Each value is its own operation of one tm.Batch
// call, so on the OneFile engines the whole call runs in as few physical
// transactions as the batch bound allows: one commit pipeline and, on the
// persistent engines, one fence round per batch instead of per element. On
// an engine that does not batch each element is an ordinary solo
// transaction, so the methods are portable (but then carry no
// cross-element atomicity, exactly like calling the per-element methods in
// a loop).
//
// Submitting per element (rather than one big op doing the whole slice)
// keeps each operation's write-set small: a batch transaction that
// overflows falls back to per-op solo commits, never to a failure.

// batchErr returns the first operation error in res, if any.
func batchErr(res []tm.BatchResult) error {
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// EnqueueAll appends every value of vs, in order, as one
// batch.
func (q *Queue) EnqueueAll(vs []uint64) error {
	fns := make([]func(Tx) uint64, len(vs))
	for i, v := range vs {
		fns[i] = func(tx Tx) uint64 { q.EnqueueTx(tx, v); return 0 }
	}
	return batchErr(tm.Batch(q.e, fns))
}

// DequeueAll removes up to n values as one batch and returns them
// oldest-first. Fewer than n are returned if the queue runs empty.
func (q *Queue) DequeueAll(n int) ([]uint64, error) {
	fns := make([]func(Tx) uint64, n)
	for i := range fns {
		fns[i] = func(tx Tx) uint64 {
			v, ok := q.DequeueTx(tx)
			return pack(v, ok)
		}
	}
	res := tm.Batch(q.e, fns)
	if err := batchErr(res); err != nil {
		return nil, err
	}
	out := make([]uint64, 0, n)
	for _, r := range res {
		if v, ok := unpack(r.Val); ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// PushAll pushes every value of vs, in order (vs[len-1] ends up on top),
// as one batch.
func (s *Stack) PushAll(vs []uint64) error {
	fns := make([]func(Tx) uint64, len(vs))
	for i, v := range vs {
		fns[i] = func(tx Tx) uint64 { s.PushTx(tx, v); return 0 }
	}
	return batchErr(tm.Batch(s.e, fns))
}

// AddAll inserts every key of ks as one batch and returns how many were
// newly added (duplicates — within ks or with the existing set — count
// once).
func (h *HashSet) AddAll(ks []uint64) (int, error) {
	fns := make([]func(Tx) uint64, len(ks))
	for i, k := range ks {
		fns[i] = func(tx Tx) uint64 { return boolWord(h.AddTx(tx, k)) }
	}
	res := tm.Batch(h.e, fns)
	if err := batchErr(res); err != nil {
		return 0, err
	}
	added := 0
	for _, r := range res {
		added += int(r.Val)
	}
	return added, nil
}
