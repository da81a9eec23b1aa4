package dcas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTMWordZeroAndStore(t *testing.T) {
	w := &NewSlab(1)[0]
	if v, s, ok := w.Snapshot(); v != 0 || s != 0 || !ok {
		t.Fatalf("fresh word = (%d,%d,%v), want (0,0,true)", v, s, ok)
	}
	w.Store(7, 3)
	if v, s := w.Load(); v != 7 || s != 3 {
		t.Fatalf("after Store = (%d,%d), want (7,3)", v, s)
	}
	w.Store(0, 0)
	if !w.CompareAndSwap(0, 0, 5, 1) {
		t.Fatal("CAS from a re-zeroed word failed")
	}
}

// TestTMWordCASHalves: the DCAS compares both words — a mismatch in either
// half fails it and leaves the word alone.
func TestTMWordCASHalves(t *testing.T) {
	w := &NewSlab(1)[0]
	w.Store(10, 20)
	for _, tc := range []struct {
		name     string
		val, seq uint64
	}{
		{"value differs", 11, 20},
		{"sequence differs", 10, 21},
		{"both differ", 11, 21},
		{"halves swapped", 20, 10},
	} {
		if w.CompareAndSwap(tc.val, tc.seq, 99, 99) {
			t.Fatalf("%s: CAS succeeded", tc.name)
		}
		if v, s := w.Load(); v != 10 || s != 20 {
			t.Fatalf("%s: failed CAS changed the word to (%d,%d)", tc.name, v, s)
		}
	}
	if !w.CompareAndSwap(10, 20, 30, 40) {
		t.Fatal("matching CAS failed")
	}
	if v, s, ok := w.Snapshot(); v != 30 || s != 40 || !ok {
		t.Fatalf("after CAS = (%d,%d,%v), want (30,40,true)", v, s, ok)
	}
}

// TestTMWordStress: four writers advance one word so that val == 3*seq
// always; four readers check that every consistent Snapshot satisfies it,
// that Load's pair is torn only towards a newer sequence, and that the
// sequence never goes back. Neighbouring words must stay untouched. It runs
// for a fixed time, long enough for the scheduler to preempt writers
// mid-loop many times over even on two CPUs.
func TestTMWordStress(t *testing.T) {
	const writers, readers = 4, 4
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	slab := NewSlab(3)
	w := &slab[1]
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v, s, ok := w.Snapshot(); ok {
					w.CompareAndSwap(v, s, 3*(s+1), s+1)
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				if v, s, ok := w.Snapshot(); ok && v != 3*s {
					t.Errorf("consistent snapshot (%d,%d) breaks val == 3*seq", v, s)
					return
				}
				v, s := w.Load()
				if v%3 != 0 || v/3 > s {
					t.Errorf("Load (%d,%d): value is not from sequence <= seq", v, s)
					return
				}
				if s < last {
					t.Errorf("sequence went back: %d after %d", s, last)
					return
				}
				last = s
			}
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	v, s, ok := w.Snapshot()
	if !ok || s == 0 || v != 3*s {
		t.Fatalf("final word = (%d,%d,%v), want val == 3*seq, seq > 0", v, s, ok)
	}
	t.Logf("%d DCASes landed", s)
	for _, i := range []int{0, 2} {
		if v, s := slab[i].Load(); v != 0 || s != 0 {
			t.Fatalf("neighbour %d = (%d,%d), want (0,0)", i, v, s)
		}
	}
}
