package core

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"onefile/internal/tm"
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

// newFullWriteSet is newWriteSet as it was while the owner-private half was
// sized for maxStores when the slot was made: the reference a grown write-set
// is held to. With len(keys) == cap it never grows.
func newFullWriteSet(capacity int) *writeSet {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	return &writeSet{
		num:     new(atomic.Uint64),
		ent:     make([]atomic.Uint64, 2*capacity),
		keys:    make([]uint64, capacity),
		vals:    make([]uint64, capacity),
		cap:     capacity,
		limit:   capacity,
		buckets: make([]int32, nb),
		bver:    make([]uint32, nb),
		next:    make([]int32, capacity),
		mask:    uint32(nb - 1),
	}
}

// wsPair drives a write-set that grows and the pre-sized reference through
// the same calls and compares everything a caller can see of them.
type wsPair struct {
	t           *testing.T
	grown, full *writeSet
	addrs       uint64 // addresses are drawn from [1, addrs]
}

func (p *wsPair) each(op func(w *writeSet)) { op(p.grown); op(p.full) }

// overflows reports whether op panics with tm.ErrTooManyStores, which it must
// do on both or on neither.
func (p *wsPair) overflows(op func(w *writeSet)) bool {
	try := func(w *writeSet) (overflowed bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != tm.ErrTooManyStores {
					panic(r)
				}
				overflowed = true
			}
		}()
		op(w)
		return false
	}
	g, f := try(p.grown), try(p.full)
	if g != f {
		p.t.Fatalf("n=%d: grown write-set overflowed = %v, pre-sized = %v", p.full.n, g, f)
	}
	return g
}

func (p *wsPair) same(when string) {
	p.t.Helper()
	g, f := p.grown, p.full
	if g.n != f.n || g.hashed != f.hashed || g.summary != f.summary || g.cap != f.cap {
		p.t.Fatalf("%s: grown n=%d hashed=%v summary=%#x cap=%d, pre-sized n=%d hashed=%v summary=%#x cap=%d",
			when, g.n, g.hashed, g.summary, g.cap, f.n, f.hashed, f.summary, f.cap)
	}
	if !slices.Equal(g.keys[:g.n], f.keys[:f.n]) || !slices.Equal(g.vals[:g.n], f.vals[:f.n]) {
		p.t.Fatalf("%s: entry prefixes differ at n=%d", when, g.n)
	}
	if len(g.keys) > g.cap || len(g.vals) != len(g.keys) || (g.next != nil && len(g.next) != len(g.keys)) {
		p.t.Fatalf("%s: grown to %d keys, %d vals, %d links; cap %d", when, len(g.keys), len(g.vals), len(g.next), g.cap)
	}
}

// sameLookups compares lookup over every address that can be present and a
// band beyond (absent, some sharing a summary bit with a present one).
func (p *wsPair) sameLookups(when string) {
	p.t.Helper()
	for a := uint64(1); a <= p.addrs+64; a++ {
		gv, gok := p.grown.lookup(a)
		fv, fok := p.full.lookup(a)
		if gv != fv || gok != fok {
			p.t.Fatalf("%s: lookup(%d) = %d,%v grown, %d,%v pre-sized", when, a, gv, gok, fv, fok)
		}
	}
}

// samePublish publishes both and compares the shared logs: the count and
// every entry, stamps past headEntries included.
func (p *wsPair) samePublish(stamp uint64) {
	p.t.Helper()
	p.each(func(w *writeSet) { w.publish(stamp) })
	if g, f := p.grown.num.Load(), p.full.num.Load(); g != f || g != uint64(p.full.n) {
		p.t.Fatalf("published numStores %d grown, %d pre-sized, n=%d", g, f, p.full.n)
	}
	for i := 0; i < 2*p.full.n; i++ {
		if g, f := p.grown.ent[i].Load(), p.full.ent[i].Load(); g != f {
			p.t.Fatalf("published log word %d: %#x grown, %#x pre-sized", i, g, f)
		}
	}
	if n := p.full.n; n > headEntries && p.grown.ent[2*(n-1)].Load()&^addrMask != stamp {
		p.t.Fatalf("entry %d past the first line carries no stamp", n-1)
	}
}

// TestGrownWriteSetIsThePreSizedOne: a write-set whose owner-private half
// grows with its transactions (wsFirst entries, ×wsGrow, clamped to MaxStores,
// hash index allocated on first use and re-linked on growth) is, to every
// caller, the write-set that was sized for MaxStores up front. Seeded
// transactions of every size — below linearMax, across it, across each
// doubling and the final clamp, up to MaxStores and one past it — with
// replacements, lookups, marks and rollbacks (nested, and across growth
// boundaries) run on both; n, the entry prefix, lookup's answers and publish's
// output agree after every step, and ErrTooManyStores comes at store
// MaxStores+1 on both and not before.
func TestGrownWriteSetIsThePreSizedOne(t *testing.T) {
	for _, capacity := range []int{8, linearMax + 5, wsFirst, 1000, 1 << 10} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		p := &wsPair{t: t, grown: newTestWS(capacity), full: newFullWriteSet(capacity), addrs: uint64(2 * capacity)}
		if p.grown.keys != nil || p.grown.next != nil {
			t.Fatalf("cap %d: a write-set no transaction has used holds %d entries", capacity, len(p.grown.keys))
		}
		// Transaction sizes: one per regime, then random ones. A slot keeps
		// what it grew to, so small transactions after large ones run on a
		// grown set with a stale index, as they do in an engine.
		sizes := []int{3, linearMax + 1, wsFirst + 1, capacity/2 + 1, capacity, capacity + 1, 5, linearMax + 2}
		for i := 0; i < 12; i++ {
			sizes = append(sizes, 1+rng.Intn(capacity+1))
		}
		for txn, size := range sizes {
			p.each(func(w *writeSet) { w.reset(); w.beginUndo() })
			var marks []wsMark // a stack: rolling back to one invalidates the later ones
			fresh := uint64(0) // distinct addresses handed out so far
			for p.full.n < size {
				switch op := rng.Intn(20); {
				case op < 15 || len(marks) == 0 && op >= 17:
					// A store: mostly to a new address, else to one handed out
					// before — a replacement, unless a rollback took it out.
					a, v := fresh+1, rng.Uint64()
					if op >= 12 && fresh > 0 {
						a = 1 + uint64(rng.Int63n(int64(fresh)))
					}
					fresh = max(fresh, a)
					if p.overflows(func(w *writeSet) { w.addOrReplace(a, v) }) {
						if p.full.n != capacity {
							t.Fatalf("cap %d: ErrTooManyStores at n=%d", capacity, p.full.n)
						}
						size = 0 // the transaction is over
					}
				case op < 17:
					marks = append(marks, p.full.mark())
					if g := p.grown.mark(); g != marks[len(marks)-1] {
						t.Fatalf("cap %d: marks differ: %+v grown, %+v pre-sized", capacity, g, marks[len(marks)-1])
					}
				default:
					k := rng.Intn(len(marks))
					m := marks[k]
					marks = marks[:k]
					p.each(func(w *writeSet) { w.rollbackTo(m) })
					p.sameLookups("after rollback")
				}
				p.same("mid-transaction")
			}
			if size > 0 && size <= capacity && p.full.n != size {
				t.Fatalf("cap %d txn %d: ended at n=%d, want %d", capacity, txn, p.full.n, size)
			}
			p.sameLookups("at commit")
			p.samePublish(uint64(txn+1) << addrBits)
		}
		if want := min(capacity, 1<<10); len(p.grown.keys) != want {
			t.Fatalf("cap %d: grown to %d entries after a full transaction, want %d", capacity, len(p.grown.keys), want)
		}
	}
}

// TestWriteSetRollbackAcrossGrowth: a mark taken at one capacity, a rollback
// at four times it. The chains are rebuilt at every growth; unlinking
// newest-first must still leave exactly the entries before the mark.
func TestWriteSetRollbackAcrossGrowth(t *testing.T) {
	p := &wsPair{t: t, grown: newTestWS(1 << 10), full: newFullWriteSet(1 << 10), addrs: 600}
	p.each(func(w *writeSet) { w.reset(); w.beginUndo() })
	for a := uint64(1); a <= 50; a++ {
		p.each(func(w *writeSet) { w.addOrReplace(a, a) })
	}
	if got := len(p.grown.keys); got != wsFirst {
		t.Fatalf("50 stores grew the write-set to %d entries, want %d", got, wsFirst)
	}
	m := p.full.mark()
	for a := uint64(1); a <= 300; a++ { // 50 replacements, 250 appends, three growths
		p.each(func(w *writeSet) { w.addOrReplace(a, 1000+a) })
	}
	if got := len(p.grown.keys); got != 8*wsFirst {
		t.Fatalf("300 stores grew the write-set to %d entries, want %d", got, 8*wsFirst)
	}
	p.same("grown")
	p.each(func(w *writeSet) { w.rollbackTo(m) })
	p.same("rolled back")
	p.sameLookups("rolled back")
	if v, ok := p.grown.lookup(50); p.grown.n != 50 || !ok || v != 50 {
		t.Fatalf("after rollback n=%d, lookup(50) = %d,%v; want 50, 50,true", p.grown.n, v, ok)
	}
	for a := uint64(40); a <= 600; a++ { // on past the old high-water mark
		p.each(func(w *writeSet) { w.addOrReplace(a, 2000+a) })
	}
	p.same("refilled")
	p.sameLookups("refilled")
	p.samePublish(7 << addrBits)
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
