package containers

import (
	"testing"

	"onefile/internal/core"
)

func TestQueueInterleavedEnqueueDequeue(t *testing.T) {
	e := core.NewWF(testOpts...)
	q := NewQueue(e, 0)
	// Repeatedly drain to empty and refill: exercises the tail=0 reset.
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 5; i++ {
			q.Enqueue(round2val(round, i))
		}
		for i := uint64(0); i < 5; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round2val(round, i) {
				t.Fatalf("round %d: got (%d,%v)", round, v, ok)
			}
		}
		if _, ok := q.Dequeue(); ok {
			t.Fatalf("round %d: queue not empty", round)
		}
	}
}

func round2val(r int, i uint64) uint64 { return uint64(r)<<16 | i }

func TestStackInterleaved(t *testing.T) {
	e := core.NewLF(testOpts...)
	s := NewStack(e, 0)
	s.Push(1)
	s.Push(2)
	if v, _ := s.Pop(); v != 2 {
		t.Fatal("LIFO broken")
	}
	s.Push(3)
	if v, _ := s.Pop(); v != 3 {
		t.Fatal("LIFO broken after interleave")
	}
	if v, _ := s.Pop(); v != 1 {
		t.Fatal("bottom element lost")
	}
}

func TestListSetKeysRespectsMax(t *testing.T) {
	e := core.NewLF(testOpts...)
	s := NewListSet(e, 0)
	for i := uint64(0); i < 50; i++ {
		s.Add(i)
	}
	if got := s.Keys(7); len(got) != 7 {
		t.Fatalf("Keys(7) returned %d", len(got))
	}
	if got := s.Keys(100); len(got) != 50 {
		t.Fatalf("Keys(100) returned %d", len(got))
	}
}

func TestRBTreeKeysRespectsMax(t *testing.T) {
	e := core.NewLF(testOpts...)
	tr := NewRBTree(e, 0)
	for i := uint64(0); i < 50; i++ {
		tr.Add(i)
	}
	got := tr.Keys(5)
	if len(got) != 5 {
		t.Fatalf("Keys(5) returned %d", len(got))
	}
	for i, k := range got {
		if k != uint64(i) {
			t.Fatalf("Keys(5) = %v, want smallest five", got)
		}
	}
}

func TestContainersShareOneEngine(t *testing.T) {
	// All six containers coexist on one heap, in distinct root slots, and
	// a single transaction can touch all of them atomically.
	e := core.NewWF(testOpts...)
	q := NewQueue(e, 0)
	st := NewStack(e, 1)
	ls := NewListSet(e, 2)
	hs := NewHashSet(e, 3)
	tr := NewRBTree(e, 4)
	mp := NewTreeMap(e, 5)
	e.Update(func(tx Tx) uint64 {
		q.EnqueueTx(tx, 1)
		st.PushTx(tx, 2)
		ls.AddTx(tx, 3)
		hs.AddTx(tx, 4)
		tr.AddTx(tx, 5)
		mp.PutTx(tx, 6, 60)
		return 0
	})
	if q.Len() != 1 || st.Len() != 1 || ls.Len() != 1 || hs.Len() != 1 || tr.Len() != 1 || mp.Len() != 1 {
		t.Fatal("cross-container transaction incomplete")
	}
	if !ls.Contains(3) || !hs.Contains(4) || !tr.Contains(5) {
		t.Fatal("keys missing")
	}
	if v, ok := mp.Get(6); !ok || v != 60 {
		t.Fatal("map entry missing")
	}
}

func TestAttachToExistingStructure(t *testing.T) {
	// A second container object on the same root slot sees the same data
	// (the attach-or-create constructor contract).
	e := core.NewLF(testOpts...)
	q1 := NewQueue(e, 9)
	q1.Enqueue(42)
	q2 := NewQueue(e, 9)
	if v, ok := q2.Dequeue(); !ok || v != 42 {
		t.Fatalf("second handle got (%d,%v)", v, ok)
	}
	if q1.Len() != 0 {
		t.Fatal("handles diverged")
	}
}
