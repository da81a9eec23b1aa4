package containers

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

func TestTreeMapBasics(t *testing.T) {
	forEach(t, func(t *testing.T, e Engine) {
		m := NewTreeMap(e, 11)
		if _, ok := m.Get(1); ok {
			t.Fatal("empty map hit")
		}
		if _, existed := m.Put(1, 100); existed {
			t.Fatal("fresh put reported existing")
		}
		if v, ok := m.Get(1); !ok || v != 100 {
			t.Fatalf("Get = %d,%v", v, ok)
		}
		if prev, existed := m.Put(1, 200); !existed || prev != 100 {
			t.Fatalf("overwrite = %d,%v", prev, existed)
		}
		if v, _ := m.Get(1); v != 200 {
			t.Fatalf("overwritten value = %d", v)
		}
		if prev, existed := m.Delete(1); !existed || prev != 200 {
			t.Fatalf("Delete = %d,%v", prev, existed)
		}
		if _, existed := m.Delete(1); existed {
			t.Fatal("double delete succeeded")
		}
		if m.Len() != 0 {
			t.Fatalf("Len = %d", m.Len())
		}
	})
}

func TestTreeMapRandomModel(t *testing.T) {
	forEach(t, func(t *testing.T, e Engine) {
		m := NewTreeMap(e, 11)
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(200))
			switch rng.Intn(3) {
			case 0:
				v := uint64(rng.Intn(1000))
				prev, existed := m.Put(k, v)
				mv, mok := model[k]
				if existed != mok || (mok && prev != mv) {
					t.Fatalf("step %d: Put(%d) = (%d,%v), model (%d,%v)", i, k, prev, existed, mv, mok)
				}
				model[k] = v
			case 1:
				prev, existed := m.Delete(k)
				mv, mok := model[k]
				if existed != mok || (mok && prev != mv) {
					t.Fatalf("step %d: Delete(%d) disagrees", i, k)
				}
				delete(model, k)
			default:
				v, ok := m.Get(k)
				mv, mok := model[k]
				if ok != mok || (mok && v != mv) {
					t.Fatalf("step %d: Get(%d) disagrees", i, k)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", m.Len(), len(model))
		}
	})
}

func TestTreeMapRange(t *testing.T) {
	e := core.NewWF(testOpts...)
	m := NewTreeMap(e, 11)
	for k := uint64(0); k < 100; k += 2 {
		m.Put(k, k*10)
	}
	got := m.Range(10, 20, 100)
	want := []Entry{{10, 100}, {12, 120}, {14, 140}, {16, 160}, {18, 180}, {20, 200}}
	if len(got) != len(want) {
		t.Fatalf("Range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if r := m.Range(51, 53, 100); len(r) != 1 || r[0].Key != 52 {
		t.Fatalf("Range(51,53) = %v", r)
	}
	if r := m.Range(200, 300, 100); len(r) != 0 {
		t.Fatalf("out-of-range scan = %v", r)
	}
}

// TestTreeMapAtomicRangeUnderWrites: a range scan must never observe a
// partially applied multi-key transaction. Every other transaction deletes
// key 2 and the next puts it back, so ranges also read a leaf order word
// that the writer keeps rewriting.
func TestTreeMapAtomicRangeUnderWrites(t *testing.T) {
	e := core.NewLF(testOpts...)
	m := NewTreeMap(e, 11)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i < 1500; i++ {
			// Write three keys atomically with the same generation; an even
			// generation deletes key 2 instead.
			e.Update(func(tx Tx) uint64 {
				for k := uint64(1); k <= 3; k++ {
					if k == 2 && i%2 == 0 {
						m.DeleteTx(tx, k)
					} else {
						m.PutTx(tx, k, i)
					}
				}
				return 0
			})
		}
		close(stop)
	}()
	for {
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
		es := m.Range(1, 3, 10)
		if len(es) == 0 {
			continue
		}
		want := []uint64{1, 2, 3}
		if es[0].Val%2 == 0 {
			want = []uint64{1, 3}
		}
		if len(es) != len(want) {
			t.Fatalf("torn range scan: %v", es)
		}
		for i := range es {
			if es[i].Key != want[i] || es[i].Val != es[0].Val {
				t.Fatalf("torn range scan: %v", es)
			}
		}
	}
}

func TestTreeMapSurvivesCrash(t *testing.T) {
	dev, err := pmem.New(core.DeviceConfig(pmem.RelaxedMode, 13, testOpts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentLF(dev, false, testOpts...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTreeMap(e, 11)
	for k := uint64(0); k < 200; k++ {
		m.Put(k, k+1000)
	}
	dev.Crash()
	r, err := core.NewPersistentLF(dev, true, testOpts...)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewTreeMap(r, 11)
	if m2.Len() != 200 {
		t.Fatalf("recovered Len = %d", m2.Len())
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := m2.Get(k); !ok || v != k+1000 {
			t.Fatalf("recovered Get(%d) = %d,%v", k, v, ok)
		}
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tmHeightBound is the tallest B+-tree n keys can build by inserts alone:
// every node but the root keeps at least tmMinFill entries (a split leaves
// tmLeftHalf keys on the left and the rest on the right, a leaf's keys or an
// inner node's children), and the root at least two children, so a tree of
// height h ≥ 2 holds at least 2·tmMinFill^(h−1) keys.
func tmHeightBound(n int) int {
	const tmMinFill = min(tmLeftHalf, tmCap+1-tmLeftHalf)
	h := 1
	for least := 2 * tmMinFill; least <= n; least *= tmMinFill {
		h++
	}
	return h
}

// tmStoreBound is the most words one Put or Delete stores in a tree of
// height h. A Put that splits every level stores, at the leaf, a new right
// leaf — its header, its tmNodeWords zeroed words and one allocator word —
// and the left leaf's order word, key and value; at each inner level, the
// node's own tmNodeWords words and a new node; then a new root and the
// descriptor's root, height and size. A Delete frees (three words) one node
// a level, shifts one inner node and frees at most h roots, which is less.
func tmStoreBound(h int) int {
	const node = tmNodeWords + 2
	return (node + 3) + (h-1)*(tmNodeWords+node) + node + 3
}

// allocatedWords is talloc.Audit's count of words in allocated blocks.
func allocatedWords(t *testing.T, e *core.Engine) uint64 {
	t.Helper()
	var words uint64
	var ok bool
	e.Read(func(tx Tx) uint64 {
		words, _, ok = talloc.Audit(tx, e.DynBase())
		return 0
	})
	if !ok {
		t.Fatal("talloc.Audit: the heap does not tile into blocks")
	}
	return words
}

// TestTreeMapShape: 2¹⁶ puts in random order build a tree no taller than
// the B+-tree bound, and deleting every key in another order leaves one
// empty root leaf and exactly the allocated words there were before the
// first put: every node a delete emptied was freed.
func TestTreeMapShape(t *testing.T) {
	e := core.NewLF(tm.WithHeapWords(1<<20), tm.WithMaxThreads(4), tm.WithMaxStores(1<<10))
	m := NewTreeMap(e, 0)
	before := allocatedWords(t, e)
	const n = 1 << 16
	rng := rand.New(rand.NewSource(testutil.Seed(t, 5)))
	for _, k := range rng.Perm(n) {
		m.Put(uint64(k)*7, uint64(k))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h := m.Height()
	t.Logf("%d keys: height %d (bound %d), %d allocated words", n, h, tmHeightBound(n), allocatedWords(t, e))
	if m.Len() != n || h < 2 || h > tmHeightBound(n) {
		t.Fatalf("%d keys: Len %d, height %d, bound %d", n, m.Len(), h, tmHeightBound(n))
	}
	for i, k := range rng.Perm(n) {
		if v, ok := m.Delete(uint64(k) * 7); !ok || v != uint64(k) {
			t.Fatalf("Delete(%d) = %d, %v", k*7, v, ok)
		}
		if i%(n/8) == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", i+1, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 || m.Height() != 1 {
		t.Fatalf("emptied map: Len %d, height %d", m.Len(), m.Height())
	}
	if after := allocatedWords(t, e); after != before {
		t.Fatalf("allocated words %d before the puts, %d after deleting every key", before, after)
	}
}

// walkTree calls leaf on every leaf of m, left to right, and inner on every
// inner node with its count.
func walkTree(tx Tx, m *TreeMap, leaf func(n Ptr), inner func(n Ptr, cnt int)) {
	h := int(tx.Load(m.desc + tmHeight))
	var walk func(n Ptr, lvl int)
	walk = func(n Ptr, lvl int) {
		if lvl == h-1 {
			leaf(n)
			return
		}
		cnt := int(tx.Load(n + tmCount)) // an inner node's word 0 is its count
		inner(n, cnt)
		for i := 0; i <= cnt; i++ {
			walk(Ptr(tx.Load(n+tmSlots+Ptr(i))), lvl+1)
		}
	}
	walk(Ptr(tx.Load(m.desc+tmRoot)), 0)
}

// separators returns every key of every inner node of m.
func separators(m *TreeMap) []uint64 {
	return tm.Collect(m.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		walkTree(tx, m, func(Ptr) {}, func(n Ptr, cnt int) {
			for i := 0; i < cnt; i++ {
				out = append(out, tx.Load(n+tmKeys+Ptr(i)))
			}
		})
		return out
	})
}

// leafWords returns every leaf of m, left to right, with its word 0.
func leafWords(m *TreeMap) (leaves []Ptr, words []uint64) {
	packed := tm.Collect(m.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		walkTree(tx, m, func(n Ptr) { out = append(out, uint64(n), tx.Load(n+tmCount)) }, func(Ptr, int) {})
		return out
	})
	for i := 0; i < len(packed); i += 2 {
		leaves, words = append(leaves, Ptr(packed[i])), append(words, packed[i+1])
	}
	return leaves, words
}

// TestTreeMapRangeAcrossLeaves holds Range to a sorted model on a
// three-level tree: ranges that start or end on a separator or next to
// one, that span many leaves, that stop at max, that are empty, and with
// lo > hi — then again after deletes have freed a run of leaves.
func TestTreeMapRangeAcrossLeaves(t *testing.T) {
	e := core.NewWF(testOpts...)
	m := NewTreeMap(e, 11)
	present := map[uint64]bool{}
	rng := rand.New(rand.NewSource(testutil.Seed(t, 6)))
	for _, k := range rng.Perm(3000) {
		m.Put(uint64(k)*10, uint64(k)*10+1)
		present[uint64(k)*10] = true
	}
	check := func(stage string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		keys := sortedKeys(present)
		seps := separators(m)
		if len(seps) < tmCap+1 {
			t.Fatalf("%s: %d separators: the tree is not three levels deep", stage, len(seps))
		}
		type query struct {
			lo, hi uint64
			max    int
		}
		var qs []query
		for _, s := range seps {
			qs = append(qs,
				query{s, s + 500, 1000}, query{s - 1, s + 90, 1000}, query{s + 1, s + 3000, 1000},
				query{s - 200, s, 1000}, query{s - 200, s - 1, 1000}, query{s, s, 1}, query{s, s + 5, 0},
				query{s - 100, s + 20000, 37}, query{s + 1, s + 9, 5}, query{s + 10, s - 10, 5})
		}
		qs = append(qs, query{0, MaxValue, 1 << 20}, query{0, MaxValue, 100}, query{30000, MaxValue, 10},
			query{29990, 40000, 10}, query{1, 9, 10}, query{MaxValue, MaxValue, 1}, query{5, 0, 10})
		for _, q := range qs {
			var want []Entry
			if q.lo <= q.hi {
				for _, k := range keys[sort.Search(len(keys), func(i int) bool { return keys[i] >= q.lo }):] {
					if k > q.hi || len(want) == q.max {
						break
					}
					want = append(want, Entry{k, k + 1})
				}
			}
			if got := m.Range(q.lo, q.hi, q.max); !slices.Equal(got, want) {
				t.Fatalf("%s: Range(%d, %d, %d) = %v, want %v", stage, q.lo, q.hi, q.max, got, want)
			}
		}
	}
	check("3,000 keys")
	for k := uint64(8000); k < 20000; k += 10 {
		m.Delete(k)
		delete(present, k)
	}
	for k := uint64(21000); k < 30000; k += 20 {
		m.Delete(k)
		delete(present, k)
	}
	check("after deletes")
}

// TestTreeMapStoresPerOp runs 2¹⁷ toggles of a 2¹⁷-key space, about half
// full, on OF-WF-PTM, whose bodies may store MaxStores−2 words, with
// MaxStores set from tmStoreBound: a Put or Delete that stored more than
// the bound would fail with tm.ErrTooManyStores.
func TestTreeMapStoresPerOp(t *testing.T) {
	const keySpace = 1 << 17
	h := tmHeightBound(keySpace)
	opts := []tm.Option{tm.WithHeapWords(1 << 20), tm.WithMaxThreads(4), tm.WithMaxStores(tmStoreBound(h) + 2)}
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 3, opts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentWF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTreeMap(e, 0)
	rng := rand.New(rand.NewSource(testutil.Seed(t, 7)))
	present := make([]bool, keySpace)
	for _, k := range rng.Perm(keySpace)[:keySpace/2] {
		m.Put(uint64(k), uint64(k))
		present[k] = true
	}
	tallest := 0
	for i := 0; i < keySpace; i++ {
		k := rng.Intn(keySpace)
		if present[k] {
			m.Delete(uint64(k))
		} else {
			m.Put(uint64(k), uint64(i))
		}
		present[k] = !present[k]
		if i%4096 == 0 {
			tallest = max(tallest, m.Height())
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("height ≤ %d (bound %d): at most %d stores per operation, MaxStores %d", tallest, h, tmStoreBound(h), e.MaxStores())
	if tallest > h {
		t.Fatalf("height %d above the bound %d the store limit was sized for", tallest, h)
	}
}

// rbMapPut inserts k → v into a map in the layout that preceded the B+-tree
// — an RBTree whose nodes carry the value at tnVal — with RBTree's own
// insert and a raw store of the value.
func rbMapPut(tx Tx, t *RBTree, k, v uint64) {
	t.AddTx(tx, k)
	tx.Store(t.findNode(tx, k)+tnVal, v)
}

// TestTreeMapMigratesRBLayout: an image holding a red-black map crashes and
// re-attaches; NewTreeMap migrates it in one transaction, every value is
// where it was, the red-black nodes are freed, and the map goes on working.
// A map too large for the write-set fails with tm.ErrTooManyStores and is
// left as it was.
func TestTreeMapMigratesRBLayout(t *testing.T) {
	opts := []tm.Option{tm.WithHeapWords(1 << 18), tm.WithMaxThreads(4), tm.WithMaxStores(1 << 14)}
	for _, n := range []int{0, 1, tmCap, tmCap + 1, 300, 2500} {
		dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 9, opts...))
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewPersistentWF(dev, false, opts...)
		if err != nil {
			t.Fatal(err)
		}
		base := allocatedWords(t, e)
		rb := NewRBTree(e, 2)
		keys := rand.New(rand.NewSource(int64(n))).Perm(4 * n)[:n]
		for lo := 0; lo < n; lo += 16 {
			e.Update(func(tx Tx) uint64 {
				for _, k := range keys[lo:min(lo+16, n)] {
					rbMapPut(tx, rb, uint64(k), uint64(k)*3+1)
				}
				return 0
			})
		}
		dev.Crash()
		r, err := core.NewPersistentWF(dev, true, opts...)
		if err != nil {
			t.Fatal(err)
		}
		m := NewTreeMap(r, 2)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%d keys: %v", n, err)
		}
		if m.desc != rb.desc || m.Len() != n || m.Height() > tmHeightBound(n) {
			t.Fatalf("%d keys: migrated to desc %d (was %d), Len %d, height %d", n, m.desc, rb.desc, m.Len(), m.Height())
		}
		if _, words := leafWords(m); slices.ContainsFunc(words, func(w uint64) bool { return w>>4 != 0 }) {
			t.Fatalf("%d keys: a bulk-loaded leaf has order bits: %#x", n, words)
		}
		in := map[uint64]bool{}
		for _, k := range keys {
			in[uint64(k)] = true
		}
		for k := uint64(0); k < uint64(4*n); k++ {
			if v, ok := m.Get(k); ok != in[k] || ok && v != k*3+1 {
				t.Fatalf("%d keys: Get(%d) = %d, %v after migration", n, k, v, ok)
			}
		}
		if got := m.Range(0, MaxValue, n+1); len(got) != n {
			t.Fatalf("%d keys: Range returned %d entries", n, len(got))
		}
		if m2 := NewTreeMap(r, 2); m2.Len() != n || m2.Height() != m.Height() {
			t.Fatal("a second handle on the migrated map disagrees")
		}
		for k := uint64(4 * n); k < uint64(5*n); k++ {
			m.Put(k, k)
		}
		for k := uint64(0); k < uint64(5*n); k++ {
			m.Delete(k)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%d keys, emptied: %v", n, err)
		}
		// What stays allocated is the descriptor's block and one empty
		// leaf: no red-black node survived the migration.
		if got, want := allocatedWords(t, r), base+(4+1)+(tmNodeWords+1); got != want {
			t.Fatalf("%d keys: %d words allocated after emptying the migrated map, want %d", n, got, want)
		}
		r.Close()
		dev.Close()
	}

	// Too large: a migration of 200 entries cannot fit 62 stores.
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 9, smallStoreOpts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentWF(dev, false, smallStoreOpts...)
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRBTree(e, 2)
	for k := uint64(0); k < 200; k++ {
		e.Update(func(tx Tx) uint64 { rbMapPut(tx, rb, k, k+7); return 0 })
	}
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, tm.ErrTooManyStores) {
				t.Fatalf("NewTreeMap of 200 red-black entries at 62 stores: recovered %v", err)
			}
		}()
		NewTreeMap(e, 2)
	}()
	if rb.Len() != 200 || rb.CheckInvariants() != nil {
		t.Fatal("the failed migration changed the red-black map")
	}
	for k := uint64(0); k < 200; k++ {
		if v := e.Read(func(tx Tx) uint64 { return tx.Load(rb.findNode(tx, k) + tnVal) }); v != k+7 {
			t.Fatalf("value of %d is %d after the failed migration", k, v)
		}
	}
}

// countingTx counts the loads and stores a body makes through it. Alloc and
// Free go to the wrapped Tx, so the allocator's own stores are not counted.
type countingTx struct {
	Tx
	loads, stores int
}

func (c *countingTx) Load(p Ptr) uint64 {
	c.loads++
	return c.Tx.Load(p)
}

func (c *countingTx) Store(p Ptr, v uint64) {
	c.stores++
	c.Tx.Store(p, v)
}

// storesOf runs body in one update transaction of e and returns the words
// it stored.
func storesOf(e Engine, body func(tx Tx)) int {
	return int(e.Update(func(tx Tx) uint64 {
		c := &countingTx{Tx: tx}
		body(c)
		return uint64(c.stores)
	}))
}

// leafCount is the count of the leaf a descent for k reaches.
func leafCount(m *TreeMap, k uint64) int {
	return int(m.e.Read(func(tx Tx) uint64 {
		var p tmPath
		v := newView(tx)
		m.find(&v, k, &p, tmHead)
		return uint64(p.cnt[p.h-1])
	}))
}

// TestTreeMapLeafStores pins what a leaf operation writes, counted through a
// wrapping Tx: a Put of a new key into a leaf with room stores the key, its
// value, the leaf's word 0 and the size (4 words); an overwrite stores the
// value (1); a Delete that leaves a key in its leaf, or empties a root leaf,
// stores word 0 and the size (2). None of them shifts a key.
func TestTreeMapLeafStores(t *testing.T) {
	forEach(t, func(t *testing.T, e Engine) {
		m := NewTreeMap(e, 11)
		rng := rand.New(rand.NewSource(testutil.Seed(t, 8)))
		present := map[uint64]bool{}
		var puts, overwrites, deletes int
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(600))
			cnt := leafCount(m, k)
			switch {
			case present[k] && rng.Intn(2) == 0:
				if got := storesOf(e, func(tx Tx) { m.PutTx(tx, k, uint64(i)) }); got != 1 {
					t.Fatalf("step %d: overwrite of %d stored %d words, want 1", i, k, got)
				}
				overwrites++
			case present[k]:
				got := storesOf(e, func(tx Tx) { m.DeleteTx(tx, k) })
				if cnt > 1 || m.Height() == 1 {
					if got != 2 {
						t.Fatalf("step %d: delete of %d from a leaf of %d stored %d words, want 2", i, k, cnt, got)
					}
					deletes++
				}
				delete(present, k)
			default:
				got := storesOf(e, func(tx Tx) { m.PutTx(tx, k, uint64(i)) })
				if cnt < tmCap {
					if got != 4 {
						t.Fatalf("step %d: put of %d into a leaf of %d stored %d words, want 4", i, k, cnt, got)
					}
					puts++
				}
				present[k] = true
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.Height() < 2 || puts < 500 || overwrites < 500 || deletes < 500 {
			t.Fatalf("height %d; %d puts, %d overwrites, %d deletes counted", m.Height(), puts, overwrites, deletes)
		}
	})
}

// withNibble is ord with rank j's nibble set to s.
func withNibble(ord uint64, j int, s uint64) uint64 {
	return ord&^(15<<(4*j)) | s<<(4*j)
}

// TestTreeMapInvariantsReadTheOrder: CheckInvariants reports a leaf whose
// order names one slot twice or names slot tmCap, and one whose order has
// two ranks swapped, and accepts the leaf again once its word is restored.
func TestTreeMapInvariantsReadTheOrder(t *testing.T) {
	e := core.NewLF(testOpts...)
	m := NewTreeMap(e, 11)
	for _, k := range []uint64{50, 10, 40, 20, 30} {
		m.Put(k, k)
	}
	m.Delete(40)
	m.Put(35, 35) // in the slot 40 left
	leaves, words := leafWords(m)
	if len(leaves) != 1 {
		t.Fatalf("%d leaves", len(leaves))
	}
	leaf, w := leaves[0], words[0]
	cnt, ord := leafWord(w)
	if cnt != 5 || w>>4 == 0 {
		t.Fatalf("leaf word %#x: want 5 keys out of slot order", w)
	}
	setWord := func(w uint64) {
		e.Update(func(tx Tx) uint64 { tx.Store(leaf+tmCount, w); return 0 })
	}
	for _, tc := range []struct {
		name string
		ord  uint64
		want error
	}{
		{"duplicated slot", withNibble(ord, 3, uint64(slotOf(ord, 1))), errLeafOrder},
		{"slot tmCap", withNibble(ord, 4, tmCap), errLeafOrder},
		{"swapped pair", withNibble(withNibble(ord, 1, uint64(slotOf(ord, 2))), 2, uint64(slotOf(ord, 1))), errKeyOrder},
	} {
		setWord(packLeaf(cnt, tc.ord))
		if err := m.CheckInvariants(); err != tc.want {
			t.Errorf("%s (order %#x over %#x): CheckInvariants = %v, want %v", tc.name, tc.ord, ord, err, tc.want)
		}
		setWord(w)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s, restored: %v", tc.name, err)
		}
	}
}

// countingEngine counts the loads and stores of every update body; only for
// a lock-free engine, whose bodies run on the caller's goroutine.
type countingEngine struct {
	Engine
	loads, stores int
}

func (c *countingEngine) Update(fn func(tx Tx) uint64) uint64 {
	var ct countingTx
	r := c.Engine.Update(func(tx Tx) uint64 {
		ct = countingTx{Tx: tx}
		return fn(&ct)
	})
	c.loads += ct.loads
	c.stores += ct.stores
	return r
}

// TestTreeMapReadsSlotOrderLeaves: an image written before the order word —
// layout tag tmBTree, every leaf's word 0 a plain count over keys in slot
// order — crashes and re-attaches; NewTreeMap re-tags it in one store
// without walking it, every value is where it was, and puts, deletes and
// ranges on it agree with a model.
func TestTreeMapReadsSlotOrderLeaves(t *testing.T) {
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 11, testOpts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentLF(dev, false, testOpts...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTreeMap(e, 4)
	const n = 1000
	model := map[uint64]uint64{}
	for k := uint64(0); k < n; k++ {
		m.Put(3*k, k)
		model[3*k] = k
	}
	leaves, words := leafWords(m)
	for _, w := range words {
		if cnt, ord := leafWord(w); packLeaf(cnt, ord) != packLeaf(cnt, tmInOrder) {
			t.Fatalf("ascending puts left a leaf out of slot order: %#x", w)
		}
	}
	e.Update(func(tx Tx) uint64 {
		for i, leaf := range leaves {
			tx.Store(leaf+tmCount, words[i]&15)
		}
		tx.Store(m.desc+tmLayout, tmBTree)
		return 0
	})
	dev.Crash()
	r, err := core.NewPersistentLF(dev, true, testOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingEngine{Engine: r}
	m = NewTreeMap(ce, 4)
	if ce.stores != 1 || ce.loads > 2 {
		t.Fatalf("NewTreeMap of a tag-%d map: %d loads, %d stores; want one store and no walk", tmBTree, ce.loads, ce.stores)
	}
	if _, words := leafWords(m); len(words) < 2 || slices.ContainsFunc(words, func(w uint64) bool { return w>>4 != 0 }) {
		t.Fatalf("re-tagging rewrote a leaf: %#x", words)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3*n; k++ {
		if v, ok := m.Get(k); ok != (k%3 == 0) || ok && v != k/3 {
			t.Fatalf("Get(%d) = %d, %v on the re-tagged map", k, v, ok)
		}
	}
	rng := rand.New(rand.NewSource(testutil.Seed(t, 12)))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(3 * n))
		switch rng.Intn(3) {
		case 0:
			prev, existed := m.Put(k, uint64(i))
			if mv, mok := model[k]; existed != mok || mok && prev != mv {
				t.Fatalf("step %d: Put(%d) = %d, %v; model %d, %v", i, k, prev, existed, mv, mok)
			}
			model[k] = uint64(i)
		case 1:
			prev, existed := m.Delete(k)
			if mv, mok := model[k]; existed != mok || mok && prev != mv {
				t.Fatalf("step %d: Delete(%d) = %d, %v; model %d, %v", i, k, prev, existed, mv, mok)
			}
			delete(model, k)
		default:
			hi := k + uint64(rng.Intn(200))
			var want []Entry
			for _, mk := range sortedKeys(model) {
				if mk >= k && mk <= hi && len(want) < 40 {
					want = append(want, Entry{mk, model[mk]})
				}
			}
			if got := m.Range(k, hi, 40); !slices.Equal(got, want) {
				t.Fatalf("step %d: Range(%d, %d, 40) = %v, want %v", i, k, hi, got, want)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != len(model) {
		t.Fatalf("Len %d, model %d", m.Len(), len(model))
	}
}

// BenchmarkTreeMapToggle is the txn-wf workload's serial chain alone: one
// goroutine on OF-WF-PTM over the strict simulator toggles random keys of a
// 2¹⁷-key space that stays half full, so every operation is one update
// transaction that descends a five-level B+-tree and shifts or splits a
// leaf — body, commit CAS, apply, flush, close — with nothing contending for
// it.
func BenchmarkTreeMapToggle(b *testing.B) {
	const keySpace = 1 << 17
	opts := []tm.Option{tm.WithHeapWords(1 << 21), tm.WithMaxThreads(16), tm.WithMaxStores(1 << 15)}
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewPersistentWF(dev, false, opts...)
	if err != nil {
		b.Fatal(err)
	}
	m := NewTreeMap(e, 1)
	present := make([]bool, keySpace)
	for lo := uint64(0); lo < keySpace; lo += 64 {
		e.Update(func(tx Tx) uint64 {
			for k := lo; k < lo+64; k += 2 {
				m.PutTx(tx, k, k)
			}
			return 0
		})
	}
	for k := 0; k < keySpace; k += 2 {
		present[k] = true
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(keySpace)
		if present[k] {
			m.Delete(uint64(k))
		} else {
			m.Put(uint64(k), uint64(i))
		}
		present[k] = !present[k]
	}
}

// treeMapBench is txn-wf's tree map alone: OF-WF-PTM over the strict
// simulator, the even keys of a 2¹⁷-key space put in random order, 32 a
// transaction.
func treeMapBench(b *testing.B) *TreeMap {
	const keySpace = 1 << 17
	opts := []tm.Option{tm.WithHeapWords(1 << 21), tm.WithMaxThreads(16), tm.WithMaxStores(1 << 15)}
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewPersistentWF(dev, false, opts...)
	if err != nil {
		b.Fatal(err)
	}
	m := NewTreeMap(e, 1)
	keys := rand.New(rand.NewSource(2)).Perm(keySpace / 2)
	for lo := 0; lo < len(keys); lo += 32 {
		e.Update(func(tx Tx) uint64 {
			for _, k := range keys[lo : lo+32] {
				m.PutTx(tx, uint64(2*k), uint64(k))
			}
			return 0
		})
	}
	return m
}

// BenchmarkTreeMapGet is txn-wf's tree-map read: one lookup of a random
// key, half of them present.
func BenchmarkTreeMapGet(b *testing.B) {
	m := treeMapBench(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(1 << 17)
		if _, ok := m.Get(uint64(k)); ok != (k%2 == 0) {
			b.Fatalf("Get(%d) wrong", k)
		}
	}
}

// BenchmarkTreeMapRange is txn-wf's scan: the entries of a random 100-key
// span, at most 50 (about 50 at half occupancy).
func BenchmarkTreeMapRange(b *testing.B) {
	m := treeMapBench(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(rng.Intn(1<<17 - 100))
		if es := m.Range(lo, lo+99, 50); len(es) != 50 {
			b.Fatalf("Range(%d, %d) returned %d entries", lo, lo+99, len(es))
		}
	}
}
