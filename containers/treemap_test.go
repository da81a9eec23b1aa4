package containers

import (
	"math/rand"
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
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
// partially applied multi-key transaction.
func TestTreeMapAtomicRangeUnderWrites(t *testing.T) {
	e := core.NewLF(testOpts...)
	m := NewTreeMap(e, 11)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i < 1500; i++ {
			// Write three keys atomically with the same generation.
			e.Update(func(tx Tx) uint64 {
				m.PutTx(tx, 1, i)
				m.PutTx(tx, 2, i)
				m.PutTx(tx, 3, i)
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
		for i := 1; i < len(es); i++ {
			if es[i].Val != es[0].Val {
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

// BenchmarkTreeMapToggle is the txn-wf workload's serial chain alone: one
// goroutine on OF-WF-PTM over the strict simulator toggles random keys of a
// 2¹⁷-key space that stays half full, so every operation is one update
// transaction that walks a 17-level tree — body, commit CAS, apply, flush,
// close — with nothing contending for it.
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
