package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newTestWS(capacity int) *writeSet {
	num := new(atomic.Uint64)
	ent := make([]atomic.Uint64, 2*capacity)
	ws := newWriteSet(num, ent, capacity)
	return &ws
}

func TestWriteSetAddLookup(t *testing.T) {
	ws := newTestWS(64)
	ws.reset()
	if _, ok := ws.lookup(5); ok {
		t.Fatal("lookup on empty set hit")
	}
	ws.addOrReplace(5, 50)
	ws.addOrReplace(6, 60)
	if v, ok := ws.lookup(5); !ok || v != 50 {
		t.Fatalf("lookup(5) = %d,%v", v, ok)
	}
	ws.addOrReplace(5, 55)
	if v, _ := ws.lookup(5); v != 55 {
		t.Fatalf("replace failed: %d", v)
	}
	if ws.n != 2 {
		t.Fatalf("n = %d, want 2 (replace must not grow)", ws.n)
	}
}

func TestWriteSetResetClears(t *testing.T) {
	ws := newTestWS(64)
	ws.reset()
	ws.addOrReplace(1, 10)
	ws.reset()
	if _, ok := ws.lookup(1); ok {
		t.Fatal("entry survived reset")
	}
	if ws.n != 0 || ws.summary != 0 {
		t.Fatalf("n = %d, summary = %#x after reset", ws.n, ws.summary)
	}
}

func TestWriteSetHashTransition(t *testing.T) {
	ws := newTestWS(1024)
	ws.reset()
	n := linearMax * 4
	for i := 0; i < n; i++ {
		ws.addOrReplace(uint64(1000+i), uint64(i))
	}
	if !ws.hashed {
		t.Fatal("write-set did not switch to hashed mode")
	}
	for i := 0; i < n; i++ {
		if v, ok := ws.lookup(uint64(1000 + i)); !ok || v != uint64(i) {
			t.Fatalf("lookup(%d) = %d,%v", 1000+i, v, ok)
		}
	}
	// Replacement in hashed mode.
	ws.addOrReplace(1000, 999)
	if v, _ := ws.lookup(1000); v != 999 {
		t.Fatal("hashed replace failed")
	}
	if ws.n != n {
		t.Fatalf("n = %d, want %d", ws.n, n)
	}
}

func TestWriteSetReuseAcrossResets(t *testing.T) {
	ws := newTestWS(256)
	for round := 0; round < 10; round++ {
		ws.reset()
		for i := 0; i < linearMax*2; i++ {
			ws.addOrReplace(uint64(i*3+round), uint64(round*1000+i))
		}
		for i := 0; i < linearMax*2; i++ {
			if v, ok := ws.lookup(uint64(i*3 + round)); !ok || v != uint64(round*1000+i) {
				t.Fatalf("round %d: lookup(%d) = %d,%v", round, i*3+round, v, ok)
			}
		}
		if _, ok := ws.lookup(uint64(linearMax*2*3 + round + 3)); ok {
			t.Fatalf("round %d: phantom entry", round)
		}
	}
}

func TestWriteSetOverflowPanics(t *testing.T) {
	ws := newTestWS(8)
	ws.reset()
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	for i := 0; i < 9; i++ {
		ws.addOrReplace(uint64(i), 0)
	}
}

// TestQuickWriteSetMatchesMap property: a writeSet behaves exactly like a
// map under any sequence of addOrReplace, across both lookup regimes.
func TestQuickWriteSetMatchesMap(t *testing.T) {
	f := func(keys []uint16, vals []uint64) bool {
		ws := newTestWS(1 << 12)
		ws.reset()
		model := map[uint64]uint64{}
		for i, k := range keys {
			addr := uint64(k%200 + 1) // collide often
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			ws.addOrReplace(addr, v)
			model[addr] = v
		}
		if ws.n != len(model) {
			return false
		}
		for addr, want := range model {
			if got, ok := ws.lookup(addr); !ok || got != want {
				return false
			}
		}
		_, miss := ws.lookup(5000)
		return !miss
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSetRollback: rollbackTo must restore exactly the state at the
// mark — replacements undone, appended entries unlinked — in both lookup
// regimes.
func TestWriteSetRollback(t *testing.T) {
	for _, preload := range []int{3, linearMax + 10} { // linear and hashed
		ws := newTestWS(1 << 10)
		ws.reset()
		ws.beginUndo()
		for i := 0; i < preload; i++ {
			ws.addOrReplace(uint64(100+i), uint64(i))
		}
		m := ws.mark()
		ws.addOrReplace(100, 777) // replace a pre-mark entry
		ws.addOrReplace(9000, 1)  // append
		ws.addOrReplace(9001, 2)  // append
		ws.addOrReplace(9000, 3)  // replace a post-mark entry
		ws.rollbackTo(m)
		if ws.n != preload {
			t.Fatalf("preload=%d: n = %d after rollback", preload, ws.n)
		}
		for i := 0; i < preload; i++ {
			if v, ok := ws.lookup(uint64(100 + i)); !ok || v != uint64(i) {
				t.Fatalf("preload=%d: lookup(%d) = %d,%v after rollback", preload, 100+i, v, ok)
			}
		}
		for _, gone := range []uint64{9000, 9001} {
			if _, ok := ws.lookup(gone); ok {
				t.Fatalf("preload=%d: rolled-back entry %d still visible", preload, gone)
			}
		}
		// The set must remain fully usable after a rollback.
		ws.addOrReplace(9000, 42)
		if v, _ := ws.lookup(9000); v != 42 {
			t.Fatalf("preload=%d: add after rollback failed", preload)
		}
	}
}

// TestQuickWriteSetRollbackMatchesMap property: interleaving addOrReplace
// with mark/rollback behaves exactly like snapshotting and restoring a map,
// including across the linear→hash transition.
func TestQuickWriteSetRollbackMatchesMap(t *testing.T) {
	f := func(ops []uint16, cut uint8) bool {
		ws := newTestWS(1 << 12)
		ws.reset()
		ws.beginUndo()
		model := map[uint64]uint64{}
		// Phase 1: ops before the mark.
		k := int(cut) % (len(ops) + 1)
		for i, op := range ops[:k] {
			addr := uint64(op%97 + 1)
			ws.addOrReplace(addr, uint64(i))
			model[addr] = uint64(i)
		}
		snap := make(map[uint64]uint64, len(model))
		for a, v := range model {
			snap[a] = v
		}
		m := ws.mark()
		// Phase 2: ops after the mark, then roll back.
		for i, op := range ops[k:] {
			addr := uint64(op%97 + 1)
			ws.addOrReplace(addr, uint64(1000+i))
		}
		ws.rollbackTo(m)
		if ws.n != len(snap) {
			return false
		}
		for a, want := range snap {
			if got, ok := ws.lookup(a); !ok || got != want {
				return false
			}
		}
		// Absent means absent, also for a rolled-back address whose summary
		// bit stayed set, and for one that shares a bit with a present one.
		for a := uint64(1); a <= 97+64; a++ {
			_, in := snap[a]
			if _, hit := ws.lookup(a); hit != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortUint64: both regimes of flushWords' sort — insertion below
// sortSmall, slices.Sort above — agree with the library sort on random
// batches, on ascending runs (a drain's write-set) and on duplicates.
func TestSortUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, sortSmall - 1, sortSmall, sortSmall + 1, 150, 1000} {
		for shape := 0; shape < 3; shape++ {
			a := make([]uint64, n)
			for i := range a {
				switch shape {
				case 0:
					a[i] = rng.Uint64()
				case 1: // runs of nine ascending addresses from random bases
					if i%9 == 0 {
						a[i] = uint64(rng.Intn(1 << 20))
					} else {
						a[i] = a[i-1] + 1
					}
				default:
					a[i] = uint64(rng.Intn(4))
				}
			}
			want := slices.Clone(a)
			slices.Sort(want)
			sortUint64(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d shape=%d: not sorted like slices.Sort", n, shape)
			}
		}
	}
}
