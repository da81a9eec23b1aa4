package dcas

import "testing"

func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	w := &NewSlab(1)[0]
	w.Store(42, 7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, s := w.Load()
		sink += v + s
	}
	_ = sink
}

func BenchmarkSnapshot(b *testing.B) {
	b.ReportAllocs()
	w := &NewSlab(1)[0]
	w.Store(42, 7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _, _ := w.Snapshot()
		sink += v
	}
	_ = sink
}

// BenchmarkCAS is the engine's DCAS: a load and an uncontended swing.
func BenchmarkCAS(b *testing.B) {
	b.ReportAllocs()
	w := &NewSlab(1)[0]
	for i := 0; i < b.N; i++ {
		v, s := w.Load()
		if !w.CompareAndSwap(v, s, uint64(i), s+1) {
			b.Fatal("uncontended CAS failed")
		}
	}
}

// BenchmarkCASStale is the failing DCAS of a helper that arrives late.
func BenchmarkCASStale(b *testing.B) {
	b.ReportAllocs()
	w := &NewSlab(1)[0]
	w.Store(2, 2)
	for i := 0; i < b.N; i++ {
		if w.CompareAndSwap(1, 1, 3, 3) {
			b.Fatal("stale CAS succeeded")
		}
	}
}

// BenchmarkWordCASPair is the pointer emulation with a caller-recycled pair
// (the LCRQ cell and the benchmark's dcas floor), for comparison.
func BenchmarkWordCASPair(b *testing.B) {
	b.ReportAllocs()
	var w Word
	w.Store(0, 0)
	n := &Pair{}
	for i := 0; i < b.N; i++ {
		old := w.Snapshot()
		n.Val, n.Seq = uint64(i), old.Seq+1
		if !w.CompareAndSwapPair(old, n) {
			b.Fatal("uncontended CAS failed")
		}
		n = old
	}
}
