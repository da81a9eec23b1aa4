package dcas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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

// TestSlabOver: on the native build the words are the view's memory, entry for
// entry, and the view's zero report is passed on; a view too short or off a
// 16-byte boundary panics. On the pointer build the view is never asked for
// and the words are a zeroed slab of their own.
func TestSlabOver(t *testing.T) {
	mem := make([]Pair, 64)
	asked := false
	view := func() ([]Pair, bool) { asked = true; return mem, false }
	words, zeroed := SlabOver(8, view)
	if len(words) != 8 {
		t.Fatalf("SlabOver(8) has %d words", len(words))
	}
	if !Native {
		if asked || !zeroed {
			t.Fatalf("pointer build: view asked for %v, zeroed %v; want false, true", asked, zeroed)
		}
		return
	}
	if !asked || zeroed || unsafe.Pointer(&words[0]) != unsafe.Pointer(&mem[0]) {
		t.Fatalf("native build: view asked for %v, zeroed %v, words at %p, view at %p", asked, zeroed, &words[0], &mem[0])
	}
	words[3].Store(7, 9)
	mem[5] = Pair{Val: 1, Seq: 2}
	if v, s := words[5].Load(); mem[3] != (Pair{Val: 7, Seq: 9}) || v != 1 || s != 2 {
		t.Fatalf("word 3 wrote %+v to the view, word 5 read (%d,%d) from it", mem[3], v, s)
	}
	odd := unsafe.Slice((*Pair)(unsafe.Add(unsafe.Pointer(&mem[0]), 8)), 8)
	for name, fn := range map[string]func(){
		"a view shorter than the slab": func() { SlabOver(len(mem)+1, view) },
		"a view off a 16-byte boundary": func() {
			SlabOver(8, func() ([]Pair, bool) { return odd, false })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SlabOver over %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
