package containers

import (
	"math/rand"
	"slices"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
)

// tracingTx is a tm.Tx that counts the loads and records the stores and
// frees a body issues through it.
type tracingTx struct {
	Tx
	loads  int
	stores []uint64 // address, value, address, value, …; a Free is ^0, block
}

func (t *tracingTx) Load(p Ptr) uint64 { t.loads++; return t.Tx.Load(p) }
func (t *tracingTx) Store(p Ptr, v uint64) {
	t.stores = append(t.stores, uint64(p), v)
	t.Tx.Store(p, v)
}
func (t *tracingTx) Free(p Ptr) {
	t.stores = append(t.stores, ^uint64(0), uint64(p))
	t.Tx.Free(p)
}

// TestTreeMapDeleteWalksOnce: DeleteTx removes the node findNode handed it
// instead of searching for the key again. Against the two-walk delete it
// replaced — find, read the value, RemoveTx by key — on an identical tree it
// issues the same stores and frees in the same order, so a delete costs the
// same DCAS and pwb as before (the devices count the same events), and
// strictly fewer loads whenever the key is present.
func TestTreeMapDeleteWalksOnce(t *testing.T) {
	type sys struct {
		dev *pmem.Sim
		e   *core.Engine
		m   *TreeMap
	}
	mk := func() sys {
		dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 7, testOpts...))
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewPersistentLF(dev, false, testOpts...)
		if err != nil {
			t.Fatal(err)
		}
		m := NewTreeMap(e, 3)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 600; i++ {
			m.Put(uint64(rng.Intn(1000)), uint64(i))
		}
		return sys{dev, e, m}
	}
	one, two := mk(), mk()

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1500; i++ {
		k := uint64(rng.Intn(1000))
		var a, b tracingTx
		var gotA, gotB uint64
		// Solo on a lock-free engine a body runs once, so it may write what
		// it captures.
		one.e.Update(func(tx Tx) uint64 {
			a = tracingTx{Tx: tx}
			gotA = pack(one.m.DeleteTx(&a, k))
			return 0
		})
		two.e.Update(func(tx Tx) uint64 {
			b = tracingTx{Tx: tx}
			n := two.m.t.findNode(&b, k)
			if n == two.m.t.nilNode(&b) {
				gotB = pack(0, false)
				return 0
			}
			prev := b.Load(n + tnVal)
			two.m.t.RemoveTx(&b, k)
			gotB = pack(prev, true)
			return 0
		})
		if gotA != gotB {
			t.Fatalf("delete %d of key %d: one walk returned %#x, two walks %#x", i, k, gotA, gotB)
		}
		if !slices.Equal(a.stores, b.stores) {
			t.Fatalf("delete %d of key %d: stores differ\n one walk  %v\n two walks %v", i, k, a.stores, b.stores)
		}
		if _, existed := unpack(gotA); existed && a.loads >= b.loads {
			t.Fatalf("delete %d of key %d: %d loads with one walk, %d with two", i, k, a.loads, b.loads)
		}
		if i%3 == 0 { // keep the tree populated
			one.m.Put(k, uint64(i))
			two.m.Put(k, uint64(i))
		}
	}
	if a, b := one.dev.Stats(), two.dev.Stats(); a != b {
		t.Errorf("persistence events differ: one walk %+v, two walks %+v", a, b)
	}
	if a, b := one.e.Stats(), two.e.Stats(); a.DCAS != b.DCAS || a.Commits != b.Commits {
		t.Errorf("engine counters differ: one walk %+v, two walks %+v", a, b)
	}
	if err := one.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
