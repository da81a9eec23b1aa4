package containers

import (
	"math/rand"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

// smallStoreOpts hold every body to 62 stores (MaxStores−2 on a wait-free
// engine): a hash-set transaction that wrote O(size) words would overflow.
var smallStoreOpts = []tm.Option{
	tm.WithHeapWords(1 << 20),
	tm.WithMaxThreads(4),
	tm.WithMaxStores(64),
}

// chainLengths returns the length of every bucket's chain, after checking
// that each chain is sorted, holds only keys that hash to it, and that the
// chains together hold Len keys.
func chainLengths(t *testing.T, h *HashSet) []int {
	t.Helper()
	type walk struct {
		lens []int
		bad  string
	}
	w := tm.Collect(h.e.Read, func(tx Tx) (w walk) {
		dir := Ptr(tx.Load(h.desc + hsDir))
		n := tx.Load(h.desc + hsNBkt)
		total := 0
		for b := uint64(0); b < n; b++ {
			l := 0
			var prev uint64
			for cur := Ptr(tx.Load(bucketWord(tx, dir, b))); cur != 0; cur = Ptr(tx.Load(cur + hnNext)) {
				k := tx.Load(cur + hnKey)
				switch {
				case l > 0 && k <= prev:
					w.bad = "chain not sorted"
				case bucketIndex(hashKey(k), n) != b:
					w.bad = "key in the wrong bucket"
				}
				prev = k
				l++
			}
			w.lens = append(w.lens, l)
			total += l
		}
		if total != int(tx.Load(h.desc+hsSize)) {
			w.bad = "chains do not add up to the size"
		}
		return w
	})
	if w.bad != "" {
		t.Fatal(w.bad)
	}
	return w.lens
}

func longestAndMean(lens []int) (longest int, mean float64) {
	sum := 0
	for _, l := range lens {
		longest = max(longest, l)
		sum += l
	}
	return longest, float64(sum) / float64(len(lens))
}

// TestHashSetGrowsInSmallTransactions: 2¹⁷ solo adds on a wait-free engine
// whose bodies may store 62 words. A set that rehashed everything in one
// transaction overflowed at its first large resize.
func TestHashSetGrowsInSmallTransactions(t *testing.T) {
	e := core.NewWF(smallStoreOpts...)
	h := NewHashSet(e, 0)
	const n = 1 << 17
	for i := uint64(0); i < n; i++ {
		if !h.Add(i) {
			t.Fatalf("Add(%d) changed nothing", i)
		}
	}
	if h.Len() != n || h.Buckets() != n/hsLoadFactor {
		t.Fatalf("Len = %d, Buckets = %d after %d adds", h.Len(), h.Buckets(), n)
	}
	for i := uint64(0); i < n; i += 101 {
		if !h.Contains(i) || h.Contains(i+n) {
			t.Fatalf("membership of %d / %d wrong", i, i+n)
		}
	}
}

// TestHashSetChainLength bounds the chains at 2¹⁷ keys — where a table
// capped at 4,096 buckets walked 32 nodes on average — and again after half
// the keys are gone (the table never shrinks, so they only get shorter).
func TestHashSetChainLength(t *testing.T) {
	e := core.NewLF(tm.WithHeapWords(1<<20), tm.WithMaxThreads(4), tm.WithMaxStores(1<<12))
	h := NewHashSet(e, 0)
	const n = 1 << 17
	rng := rand.New(rand.NewSource(testutil.Seed(t, 3)))
	keys := rng.Perm(n)
	for lo := 0; lo < n; lo += 256 {
		e.Update(func(tx Tx) uint64 {
			for _, k := range keys[lo : lo+256] {
				h.AddTx(tx, uint64(k)<<3)
			}
			return 0
		})
	}
	longest, mean := longestAndMean(chainLengths(t, h))
	t.Logf("%d keys in %d buckets: longest chain %d, mean %.2f", n, h.Buckets(), longest, mean)
	if longest > 16 || mean > hsLoadFactor {
		t.Fatalf("longest chain %d, mean %.2f at load factor %d", longest, mean, hsLoadFactor)
	}
	for _, k := range keys[:n/2] {
		h.Remove(uint64(k) << 3)
	}
	longest, mean = longestAndMean(chainLengths(t, h))
	t.Logf("after removing half: longest chain %d, mean %.2f", longest, mean)
	if longest > 16 || mean > hsLoadFactor/2.0 {
		t.Fatalf("after removing half: longest chain %d, mean %.2f", longest, mean)
	}
}

// TestHashSetProperty drives the set with random adds, removes and lookups
// over enough keys for hundreds of splits, mirrors each on a map, and checks
// every chain at intervals. Halfway through it re-attaches: on the
// persistent engine after a Crash.
func TestHashSetProperty(t *testing.T) {
	const keys, ops = 1 << 10, 5000
	seed := testutil.Seed(t, 4)
	for _, name := range []string{"OF-LF", "OF-WF", "OF-LF-PTM"} {
		t.Run(name, func(t *testing.T) {
			var dev pmem.Device
			var e Engine
			switch name {
			case "OF-LF":
				e = core.NewLF(testOpts...)
			case "OF-WF":
				e = core.NewWF(testOpts...)
			default:
				var err error
				if dev, err = pmem.New(core.DeviceConfig(pmem.StrictMode, 5, testOpts...)); err != nil {
					t.Fatal(err)
				}
				if e, err = core.NewPersistentLF(dev, false, testOpts...); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			h := NewHashSet(e, 3)
			oracle := map[uint64]bool{}
			for op := 0; op < ops; op++ {
				k := uint64(rng.Intn(keys)) * 3
				switch rng.Intn(3) {
				case 0:
					if got, want := h.Add(k), !oracle[k]; got != want {
						t.Fatalf("op %d: Add(%d) = %v, oracle %v", op, k, got, want)
					}
					oracle[k] = true
				case 1:
					if got, want := h.Remove(k), oracle[k]; got != want {
						t.Fatalf("op %d: Remove(%d) = %v, oracle %v", op, k, got, want)
					}
					delete(oracle, k)
				default:
					if got, want := h.Contains(k), oracle[k]; got != want {
						t.Fatalf("op %d: Contains(%d) = %v, oracle %v", op, k, got, want)
					}
				}
				if op == ops/2 {
					if dev != nil {
						dev.Crash()
						var err error
						if e, err = core.NewPersistentLF(dev, true, testOpts...); err != nil {
							t.Fatal(err)
						}
					}
					h = NewHashSet(e, 3)
				}
				if (op+1)%(ops/10) != 0 {
					continue
				}
				lens := chainLengths(t, h)
				if len(lens) < len(oracle)/hsLoadFactor {
					t.Fatalf("op %d: %d buckets for %d keys", op, len(lens), len(oracle))
				}
				if h.Len() != len(oracle) {
					t.Fatalf("op %d: Len = %d, oracle %d", op, h.Len(), len(oracle))
				}
				for k := uint64(0); k < keys*3; k += 3 {
					if h.Contains(k) != oracle[k] {
						t.Fatalf("op %d: Contains(%d) = %v, oracle %v", op, k, !oracle[k], oracle[k])
					}
				}
			}
			t.Logf("%d keys, %d buckets", len(oracle), h.Buckets())
		})
	}
}

// flatAddTx inserts k into a set in the flat layout that preceded linear
// hashing — descriptor [buckets, N, size] in an Alloc(3) block, N a power of
// two, bucket hash(k) mod N, sorted chains — with raw loads and stores.
func flatAddTx(tx Tx, d Ptr, k uint64) {
	slot := Ptr(tx.Load(d)) + Ptr(hashKey(k)&(tx.Load(d+1)-1))
	var prev Ptr
	cur := Ptr(tx.Load(slot))
	for cur != 0 && tx.Load(cur+hnKey) < k {
		prev, cur = cur, Ptr(tx.Load(cur+hnNext))
	}
	n := tx.Alloc(2)
	tx.Store(n+hnKey, k)
	tx.Store(n+hnNext, uint64(cur))
	if prev == 0 {
		tx.Store(slot, uint64(n))
	} else {
		tx.Store(prev+hnNext, uint64(n))
	}
	tx.Store(d+2, tx.Load(d+2)+1)
}

// TestHashSetMigratesFlatLayout: an image holding a flat-array set (built
// here with raw stores) crashes and re-attaches; NewHashSet migrates it in
// one 62-store transaction, every key is where the new bucket function
// looks, and the set goes on growing one split at a time.
func TestHashSetMigratesFlatLayout(t *testing.T) {
	for _, tc := range []struct{ buckets, keys int }{{8, 20}, {32, 100}, {4096, 20000}} {
		dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 9, smallStoreOpts...))
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewPersistentWF(dev, false, smallStoreOpts...)
		if err != nil {
			t.Fatal(err)
		}
		d := Ptr(e.Update(func(tx Tx) uint64 {
			d := tx.Alloc(3)
			tx.Store(d, uint64(tx.Alloc(tc.buckets)))
			tx.Store(d+1, uint64(tc.buckets))
			tx.Store(tm.Root(2), uint64(d))
			return uint64(d)
		}))
		keys := rand.New(rand.NewSource(int64(tc.keys))).Perm(4 * tc.keys)[:tc.keys]
		for lo := 0; lo < len(keys); lo += 8 {
			e.Update(func(tx Tx) uint64 {
				for _, k := range keys[lo:min(lo+8, len(keys))] {
					flatAddTx(tx, d, uint64(k))
				}
				return 0
			})
		}
		dev.Crash()
		r, err := core.NewPersistentWF(dev, true, smallStoreOpts...)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHashSet(r, 2)
		if h.desc != d || h.Buckets() != tc.buckets || h.Len() != tc.keys {
			t.Fatalf("%d buckets: migrated to desc %d, %d buckets, %d keys", tc.buckets, h.desc, h.Buckets(), h.Len())
		}
		chainLengths(t, h)
		in := map[uint64]bool{}
		for _, k := range keys {
			in[uint64(k)] = true
		}
		for k := uint64(0); k < uint64(4*tc.keys); k++ {
			if h.Contains(k) != in[k] {
				t.Fatalf("%d buckets: Contains(%d) = %v after migration", tc.buckets, k, !in[k])
			}
		}
		for k := uint64(4 * tc.keys); k < uint64(5*tc.keys); k++ {
			h.Add(k)
		}
		for _, k := range keys[:tc.keys/2] {
			if !h.Remove(uint64(k)) {
				t.Fatalf("%d buckets: Remove(%d) found nothing", tc.buckets, k)
			}
		}
		wantBuckets := tc.buckets // one split per Add while size > hsLoadFactor·N
		for size := tc.keys + 1; size <= 2*tc.keys; size++ {
			if size > hsLoadFactor*wantBuckets {
				wantBuckets++
			}
		}
		if h.Buckets() != wantBuckets || h.Len() != tc.keys+tc.keys-tc.keys/2 {
			t.Fatalf("%d buckets: %d buckets, %d keys after growing", tc.buckets, h.Buckets(), h.Len())
		}
		chainLengths(t, h)
		if h2 := NewHashSet(r, 2); h2.Len() != h.Len() {
			t.Fatal("a second handle on the migrated set disagrees")
		}
		r.Close()
		dev.Close()
	}
}

// hashSetBench is txn-wf's hash set alone: OF-WF-PTM over the strict
// simulator, 2¹⁶ keys of a 2¹⁷-key space, preloaded 64 keys a transaction.
func hashSetBench(b *testing.B) (*HashSet, []bool) {
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
	h := NewHashSet(e, 0)
	for lo := uint64(0); lo < keySpace; lo += 64 {
		e.Update(func(tx Tx) uint64 {
			for k := lo; k < lo+64; k += 2 {
				h.AddTx(tx, k)
			}
			return 0
		})
	}
	present := make([]bool, keySpace)
	for k := 0; k < keySpace; k += 2 {
		present[k] = true
	}
	return h, present
}

// BenchmarkHashSetContains is txn-wf's hash-set read: one lookup of a
// random key, half of them present.
func BenchmarkHashSetContains(b *testing.B) {
	h, present := hashSetBench(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(len(present))
		if h.Contains(uint64(k)) != present[k] {
			b.Fatalf("Contains(%d) wrong", k)
		}
	}
}

// BenchmarkHashSetToggle is txn-wf's hash-set update: add or remove a random
// key, so the set stays half full.
func BenchmarkHashSetToggle(b *testing.B) {
	h, present := hashSetBench(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(len(present))
		if present[k] {
			h.Remove(uint64(k))
		} else {
			h.Add(uint64(k))
		}
		present[k] = !present[k]
	}
}
