package pmem

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"onefile/internal/hugepage"
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

// TestImagesOnHugePages: every written unit of New's pair image of a
// txn-wf-sized device (2²¹ TM words, 32 MiB, in eight 4 MiB units) lies on
// transparent huge pages whole where the kernel has them (package hugepage),
// the pages it shares with the units beside it too — the first and the last
// unit but for the page at their outer end; and the device's pair view — a persistent engine's heap on
// the native build — once used, lies on them but for at most the huge page at
// either end. Each is held to the bytes under it that the kernel reports on
// huge pages (testutil.HugeBytes), not to a mapping the others may share. A
// control allocation of the size of the view with the same advice comes
// first: where the kernel gives it no huge page (THP off, or none free on the
// host at that moment) the test is skipped, since it could tell nothing about
// the code. Under the race detector it also shows that the advice passes
// checkptr. internal/core's TestImagesOnHugePagesAfterAttach holds the view to
// the same across a crash and an attach.
func TestImagesOnHugePages(t *testing.T) {
	const words = 1 << 21
	testutil.HugeControl(t, 16*words)
	d, err := New(Config{RawWords: LineWords, PairWords: words, MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The units are allocated one after another, as a workload's first
	// writes allocate them, and so lie side by side wherever the runtime
	// puts them: a unit whose ends are not huge-page boundaries shares the
	// huge page at each end with its neighbour.
	for k := range words / pairUnitWords {
		d.FlushPair(0, k*pairUnitWords, 1, 1)
		d.Fence(0)
	}
	view, _ := d.PairView()
	check := func(name string, words []uint64, least int) {
		t.Helper()
		for i := 0; i < len(words); i += 4096 / 8 {
			words[i] = 1
		}
		got := testutil.HugeBytes(t, words)
		t.Logf("%s: %d of its %d bytes on huge pages", name, got, 8*len(words))
		if got < least {
			t.Errorf("%s, once written, has %d of its %d bytes on huge pages, want at least %d", name, got, 8*len(words), least)
		}
	}
	for k, n := 0, words/pairUnitWords; k < n; k++ {
		u := d.pair.unit(k)
		least := 8 * len(u)
		if k == 0 || k == n-1 {
			// The huge page at its outer end may be shared with memory
			// faulted in on 4 KiB pages before the unit existed.
			least -= hugepage.Size
		}
		check(fmt.Sprintf("pair unit %d at %p", k, &u[0]), u, least)
	}
	check("the pair view", unsafe.Slice(&view[0].Val, 2*len(view)), 16*len(view)-2*hugepage.Size)
}

// TestImageMemoryFollowsWrites: the simulator's images take memory where a
// write has reached them and nowhere else. Each step is held to the live Go
// heap it adds (runtime.MemStats.HeapAlloc after a collection) on a
// txn-wf-sized device (2²¹ TM words: 32 MiB of pair image in eight 4 MiB
// units). New and PairView allocate no unit; the first write into a unit
// allocates exactly that unit, and a second write into it nothing; Crash,
// WriteTo, ImagePair of a word no write reached and WrittenPairs allocate
// nothing; and ReadFrom of a snapshot whose non-zero words lie in three units
// leaves exactly those three — the unit the device held before, which the
// snapshot holds zeros in, is let go.
func TestImageMemoryFollowsWrites(t *testing.T) {
	const (
		words = 1 << 21
		unit  = 16 * pairUnitWords // bytes
		slack = 256 << 10          // what is not a unit: flags, staging, slices
	)
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	grew := func(fn func()) int64 {
		before := live()
		fn()
		return live() - before
	}
	cfg := Config{RawWords: LineWords, PairWords: words, MaxSlots: 1}
	flush := func(d *Sim, idx int, val uint64) {
		ix, vals, seqs := [PairLineWords]int{idx}, [PairLineWords]uint64{val}, [PairLineWords]uint64{val}
		d.FlushPairLine(0, 1, &ix, &vals, &seqs)
		d.Fence(0)
	}
	check := func(d *Sim, what string, got, want int64, units int) {
		t.Helper()
		t.Logf("%s: %d bytes of live heap", what, got)
		if got <= want-slack || got >= want+slack {
			t.Errorf("%s added %d bytes of live heap, want %d ± %d", what, got, want, slack)
		}
		if m := d.ImageMemory(PairImage); m.Units != units || m.Bytes != int64(units)*unit {
			t.Errorf("%s: the pair image holds %+v, want %d units", what, m, units)
		}
	}

	var d *Sim
	got := grew(func() {
		var err error
		if d, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		d.PairView()
	})
	check(d, "New and PairView", got, 16*words, 0)

	const k = 5
	check(d, "the first write into a unit", grew(func() { flush(d, k*pairUnitWords+9, 7) }), unit, 1)
	check(d, "a second write into it", grew(func() { flush(d, k*pairUnitWords+4099, 8) }), 0, 1)
	for _, o := range []struct {
		name string
		fn   func()
	}{
		{"Crash", d.Crash},
		{"WriteTo", func() {
			if _, err := d.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"ImagePair of a word no write reached", func() {
			if v, s := d.ImagePair(2*pairUnitWords + 1); v != 0 || s != 0 {
				t.Fatalf("ImagePair = (%d,%d) where no write reached", v, s)
			}
		}},
		{"WrittenPairs", func() { d.WrittenPairs() }},
	} {
		check(d, o.name, grew(o.fn), 0, 1)
	}

	// The snapshot's source holds four units; one of them only zeros.
	var snap bytes.Buffer
	func() {
		src, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []int{0, 3, 7} {
			flush(src, u*pairUnitWords+u, uint64(u)+1)
		}
		flush(src, 6*pairUnitWords, 0)
		snap.Grow(16*words + 1024)
		if _, err := src.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
	}()
	got = grew(func() {
		if _, err := d.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(snap.Bytes())
	check(d, "ReadFrom", got, 2*unit, 3)
	for _, u := range []int{0, 3, 7} {
		if v, _ := d.ImagePair(u*pairUnitWords + u); v != uint64(u)+1 {
			t.Errorf("unit %d: the loaded word is %d, want %d", u, v, u+1)
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
