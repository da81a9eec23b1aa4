package containers

import (
	"math/rand"
	"sort"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
	"onefile/internal/tl2"
)

// Property-based differential tests: drive the red-black tree and the tree
// map with randomized operation sequences on every engine, mirror each
// operation on a plain Go map oracle, and after every batch compare the full
// observable state and re-verify the structural invariants.

const (
	propOps     = 400
	propKeys    = 64 // small key space => plenty of duplicate/missing hits
	propBatches = 8  // invariant + full-state checks per run
)

func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func TestRBTreeProperty(t *testing.T) {
	seed := testutil.Seed(t, 1)
	forEach(t, func(t *testing.T, e Engine) {
		rng := rand.New(rand.NewSource(seed))
		tree := NewRBTree(e, 5)
		oracle := map[uint64]bool{}
		for op := 0; op < propOps; op++ {
			k := uint64(rng.Intn(propKeys))
			switch rng.Intn(3) {
			case 0:
				if got, want := tree.Add(k), !oracle[k]; got != want {
					t.Fatalf("op %d: Add(%d) = %v, oracle %v", op, k, got, want)
				}
				oracle[k] = true
			case 1:
				if got, want := tree.Remove(k), oracle[k]; got != want {
					t.Fatalf("op %d: Remove(%d) = %v, oracle %v", op, k, got, want)
				}
				delete(oracle, k)
			default:
				if got, want := tree.Contains(k), oracle[k]; got != want {
					t.Fatalf("op %d: Contains(%d) = %v, oracle %v", op, k, got, want)
				}
			}
			if (op+1)%(propOps/propBatches) != 0 {
				continue
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			want := sortedKeys(oracle)
			got := tree.Keys(propKeys + 1)
			if len(got) != len(want) {
				t.Fatalf("op %d: Keys = %v, oracle %v", op, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: Keys = %v, oracle %v", op, got, want)
				}
			}
			if tree.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, oracle %d", op, tree.Len(), len(want))
			}
			min, minOK := tree.Min()
			max, maxOK := tree.Max()
			if minOK != (len(want) > 0) || maxOK != (len(want) > 0) {
				t.Fatalf("op %d: Min ok=%v Max ok=%v with %d keys", op, minOK, maxOK, len(want))
			}
			if len(want) > 0 && (min != want[0] || max != want[len(want)-1]) {
				t.Fatalf("op %d: Min/Max = %d/%d, oracle %d/%d", op, min, max, want[0], want[len(want)-1])
			}
		}
	})
}

// TestTreeMapProperty drives the tree map through three phases over 1,024
// keys — mostly puts until inner nodes split, mostly deletes, then a delete
// of every remaining key, which frees leaves and collapses the root back to
// a leaf — mirroring each operation on a map. Between the first two phases
// it re-attaches: on the persistent engine after a Crash.
func TestTreeMapProperty(t *testing.T) {
	const keys, ops = 1 << 10, 4000
	seed := testutil.Seed(t, 2)
	for _, name := range []string{"OF-LF", "OF-WF", "TinySTM", "OF-LF-PTM"} {
		t.Run(name, func(t *testing.T) {
			var dev pmem.Device
			var e Engine
			switch name {
			case "OF-LF":
				e = core.NewLF(testOpts...)
			case "OF-WF":
				e = core.NewWF(testOpts...)
			case "TinySTM":
				e = tl2.New(testOpts...)
			default:
				var err error
				if dev, err = pmem.New(core.DeviceConfig(pmem.StrictMode, 7, testOpts...)); err != nil {
					t.Fatal(err)
				}
				if e, err = core.NewPersistentLF(dev, false, testOpts...); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			m := NewTreeMap(e, 6)
			oracle := map[uint64]uint64{}
			check := func(op int) {
				t.Helper()
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				ents := m.Range(0, MaxValue, keys+1)
				want := sortedKeys(oracle)
				if len(ents) != len(want) {
					t.Fatalf("op %d: Range has %d entries, oracle %d", op, len(ents), len(want))
				}
				for i, ent := range ents {
					if ent.Key != want[i] || ent.Val != oracle[ent.Key] {
						t.Fatalf("op %d: Range[%d] = %d:%d, oracle %d:%d",
							op, i, ent.Key, ent.Val, want[i], oracle[want[i]])
					}
				}
				if m.Len() != len(want) {
					t.Fatalf("op %d: Len = %d, oracle %d", op, m.Len(), len(want))
				}
			}
			put := func(op int, k uint64) {
				v := rng.Uint64() & MaxValue
				wantPrev, wantOK := oracle[k]
				prev, existed := m.Put(k, v)
				if existed != wantOK || (wantOK && prev != wantPrev) {
					t.Fatalf("op %d: Put(%d) = %d,%v, oracle %d,%v", op, k, prev, existed, wantPrev, wantOK)
				}
				oracle[k] = v
			}
			del := func(op int, k uint64) {
				wantPrev, wantOK := oracle[k]
				prev, existed := m.Delete(k)
				if existed != wantOK || (wantOK && prev != wantPrev) {
					t.Fatalf("op %d: Delete(%d) = %d,%v, oracle %d,%v", op, k, prev, existed, wantPrev, wantOK)
				}
				delete(oracle, k)
			}
			tallest, collapses := 1, 0
			for op := 0; op < ops; op++ {
				k := uint64(rng.Intn(keys))
				putPct := 60 // the first half grows the map, the second shrinks it
				if op >= ops/2 {
					putPct = 15
				}
				switch p := rng.Intn(100); {
				case p < putPct:
					put(op, k)
				case p < 80:
					del(op, k)
				default:
					wantV, wantOK := oracle[k]
					v, ok := m.Get(k)
					if ok != wantOK || (wantOK && v != wantV) {
						t.Fatalf("op %d: Get(%d) = %d,%v, oracle %d,%v", op, k, v, ok, wantV, wantOK)
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
					m = NewTreeMap(e, 6)
				}
				if (op+1)%(ops/propBatches) == 0 {
					tallest = max(tallest, m.Height())
					check(op)
				}
			}
			for i, k := range rng.Perm(keys) {
				h := m.Height()
				del(ops+i, uint64(k))
				if m.Height() < h {
					collapses++
				}
				if i%(keys/propBatches) == 0 {
					check(ops + i)
				}
			}
			check(ops + keys)
			t.Logf("tallest %d, %d root collapses", tallest, collapses)
			if tallest < 3 || collapses == 0 || m.Height() != 1 {
				t.Fatalf("tallest %d, %d root collapses, final height %d: no inner split or no collapse", tallest, collapses, m.Height())
			}
		})
	}
}
