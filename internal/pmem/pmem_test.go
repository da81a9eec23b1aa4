package pmem

import (
	"testing"
	"unsafe"

	"onefile/internal/testutil"
)

// The semantic tests for the simulator (strict/relaxed crash tables, pair
// guard, stats, snapshot, hooks) live in internal/pmem/conformtest, where
// they run over every Device implementation. This file keeps only the
// Sim-specific concerns: constructor validation and the images' pages.

func TestNewRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{RawWords: -1, PairWords: 4},
		{RawWords: 4, PairWords: -1},
		{RawWords: 4, PairWords: 4, Mode: 99},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

// TestImagesOnHugePages: New's pair image of a txn-wf-sized device (2²¹ TM
// words, 32 MiB), once written, is backed by transparent huge pages where
// the kernel has them (package hugepage), and so is the device's pair view —
// a persistent engine's heap on the native build — once used. A control
// allocation of the same size with the same advice comes first: where the
// kernel gives it no huge page (THP off, or none free on the host at that
// moment) the test is skipped, since it could tell nothing about the code.
// Under the race detector it also shows that the advice passes checkptr.
// internal/core's TestImagesOnHugePagesAfterAttach holds the view to the same
// across a crash and an attach.
func TestImagesOnHugePages(t *testing.T) {
	const words = 1 << 21
	testutil.HugeControl(t, 16*words)
	d, err := New(Config{RawWords: LineWords, PairWords: words, MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	view, _ := d.PairView()
	// The two may share a mapping, so each is held to what touching it adds.
	for _, m := range []struct {
		name  string
		words []uint64
	}{
		{"pair image", d.pairImg},
		{"pair view", unsafe.Slice(&view[0].Val, 2*len(view))},
	} {
		kb := testutil.HugeKBOnWrite(t, m.words)
		t.Logf("writing the %s put %d kB of its mapping on huge pages", m.name, kb)
		if kb <= 0 {
			t.Errorf("a %d MiB %s, once written, has no huge page", len(m.words)*8>>20, m.name)
		}
	}
}

// TestPairView: the view is allocated by the first call — PairWords entries,
// all zero, starting on a cache line whatever the size — and every later call
// returns the same memory, not fresh; the device never writes it, Crash
// included, and the image is not the view.
func TestPairView(t *testing.T) {
	for _, n := range []int{1, 3, 5, 8, 1<<10 + 3} {
		d, err := New(Config{RawWords: LineWords, PairWords: n, MaxSlots: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d.view != nil {
			t.Fatalf("PairWords=%d: the view is allocated before anyone asked for it", n)
		}
		v, fresh := d.PairView()
		if len(v) != n || !fresh {
			t.Fatalf("PairWords=%d: first PairView has %d entries, fresh %v", n, len(v), fresh)
		}
		if a := uintptr(unsafe.Pointer(&v[0])); a%(8*LineWords) != 0 {
			t.Errorf("PairWords=%d: the view starts at %#x, not on a cache line", n, a)
		}
		for i, p := range v {
			if p != (Pair{}) {
				t.Fatalf("PairWords=%d: fresh view entry %d = %+v", n, i, p)
			}
		}
		v[n-1] = Pair{Val: 3, Seq: 4}
		d.FlushPair(0, 0, 9, 9)
		d.Fence(0)
		d.Crash()
		w, fresh := d.PairView()
		if fresh || &w[0] != &v[0] || len(w) != n {
			t.Fatalf("PairWords=%d: second PairView is other memory or fresh (%v)", n, fresh)
		}
		if w[n-1] != (Pair{Val: 3, Seq: 4}) || (n > 1 && w[0] != Pair{}) {
			t.Errorf("PairWords=%d: Crash or a flush changed the view: %+v … %+v", n, w[0], w[n-1])
		}
		if val, seq := d.ImagePair(n - 1); n > 1 && (val != 0 || seq != 0) {
			t.Errorf("PairWords=%d: a store to the view reached the image: (%d,%d)", n, val, seq)
		}
	}
}
