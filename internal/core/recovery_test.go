package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"onefile/internal/dcas"
	"onefile/internal/hugepage"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

// allocatedBy returns the bytes fn allocated (runtime.MemStats.TotalAlloc).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// privateBytes is what the owner-private half of w holds.
func (w *writeSet) privateBytes() int {
	return 8*(len(w.keys)+len(w.vals)) + 4*(len(w.next)+len(w.buckets)+len(w.bver))
}

// TestOpenFootprint: what opening an engine allocates is bounded by its heap,
// not by MaxStores × MaxThreads — format and attach alike — and a write-set
// costs memory on the slot that ran the large transaction, nowhere else.
func TestOpenFootprint(t *testing.T) {
	const heapWords, threads, stores = 1 << 16, 16, 1 << 15
	opts := []tm.Option{tm.WithHeapWords(heapWords), tm.WithMaxThreads(threads), tm.WithMaxStores(stores)}
	// Attach: the heap (the device's pair view) and a quarter MiB. Format
	// also allocates what it is first to write: the pair image, one unit
	// here, and the raw image's unit that holds the header.
	attachLimit := uint64(16*(heapWords+1) + 256<<10)
	formatLimit := attachLimit + 16*(heapWords+1) + 64<<10
	if !dcas.Native {
		// The pointer emulation allocates one pair per stored word by design.
		attachLimit, formatLimit = 1<<62, 1<<62
	}
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	open := func(attach bool) func() {
		return func() {
			if e, err = NewPersistentWF(dev, attach, opts...); err != nil {
				t.Fatalf("open (attach=%v): %v", attach, err)
			}
		}
	}
	got := allocatedBy(open(false))
	t.Logf("format allocated %d bytes", got)
	if got > formatLimit {
		t.Errorf("format allocated %d bytes, limit %d (36 B × MaxStores × MaxThreads = %d)", got, formatLimit, 36*stores*threads)
	}
	e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 })
	e.Close()
	dev.Crash()
	got = allocatedBy(open(true))
	t.Logf("attach allocated %d bytes", got)
	if got > attachLimit {
		t.Errorf("attach allocated %d bytes, limit %d", got, attachLimit)
	}

	// One 17,000-store transaction — txn-wf's last hash-set resize.
	got = allocatedBy(func() {
		e.Update(func(tx tm.Tx) uint64 {
			for block := 0; block < 17; block++ {
				p := tx.Alloc(1000)
				for i := tm.Ptr(0); i < 1000; i++ {
					tx.Store(p+i, uint64(i)+1)
				}
			}
			return 0
		})
	})
	t.Logf("one 17,000-store transaction allocated %d bytes", got)
	grown := 0
	for i := range e.slots {
		ws := &e.slots[i].ws
		switch got := ws.privateBytes(); {
		case got == 0:
		case got > 36*stores+1024:
			t.Errorf("slot %d holds %d bytes of write-set mirrors, more than a full one (%d)", i, got, 36*stores)
		default:
			grown++
			if len(ws.keys) != e.MaxStores() { // a wait-free body's limit, MaxStores−2
				t.Errorf("slot %d grew to %d entries for 17,000 stores, want %d", i, len(ws.keys), e.MaxStores())
			}
		}
	}
	if grown != 1 {
		t.Errorf("%d slots hold write-set mirrors after one goroutine's transactions, want 1", grown)
	}
}

// plantedImage returns a crashed device formatted for opts whose heap holds
// some data, and the durable curTx sequence.
func plantedImage(t *testing.T, opts []tm.Option) (pmem.Device, uint64) {
	t.Helper()
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPersistentWF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 3; round++ {
		e.Update(func(tx tm.Tx) uint64 {
			p := tx.Alloc(40)
			for i := tm.Ptr(0); i < 40; i += 3 {
				tx.Store(p+i, round<<32|uint64(i))
			}
			tx.Store(tm.Root(int(round)), uint64(p))
			return 0
		})
	}
	e.Close()
	dev.Crash()
	return dev, e.CurSeq()
}

// TestAttachParallelWalk: the walk of the image gives the same heap and the
// same answer however many goroutines it is split over — GOMAXPROCS 1 (inline),
// 2 and 8, a heap that does not divide into the ranges, and one with fewer
// lines than there are Ps. With words beyond curTx planted in two ranges, the
// error names the lower one every time.
func TestAttachParallelWalk(t *testing.T) {
	for _, tc := range []struct {
		heapWords, threads, procs, wantRanges int
	}{
		{1 << 14, 16, 1, 1},
		{1 << 14, 16, 2, 2},
		{1 << 14, 16, 8, 8},
		{1<<14 + 36, 16, 8, 8}, // ranges of 2056 words: the last one is short
		{300, 1, 256, 75},      // one line per range, and Ps to spare
	} {
		t.Run(fmt.Sprintf("heap=%d/procs=%d", tc.heapWords, tc.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			opts := []tm.Option{tm.WithHeapWords(tc.heapWords), tm.WithMaxThreads(tc.threads), tm.WithMaxStores(1 << 8)}
			dev, cur := plantedImage(t, opts)
			r, err := NewPersistentWF(dev, true, opts...)
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			nonZero := 0
			for i := 0; i < tc.heapWords; i++ {
				iv, is := dev.ImagePair(i)
				if v, s := r.words[i].Load(); v != iv || s != is {
					t.Fatalf("heap word %d = (%d,%d), image (%d,%d)", i, v, s, iv, is)
				}
				if iv != 0 || is != 0 {
					nonZero++
				}
			}
			rep := r.LastRecovery()
			if rep.Ranges != tc.wantRanges || rep.HeapWords != tc.heapWords || rep.WordsLoaded != nonZero || rep.Duration <= 0 {
				t.Errorf("report %+v; want %d ranges, %d heap words, %d loaded, a duration", rep, tc.wantRanges, tc.heapWords, nonZero)
			}
			// The last transaction's request closed, but no one flushes that
			// CAS: durably it is open, and recovery re-applies it.
			if !rep.Pending || rep.PendingSeq != cur || rep.StaleLogEntriesSkipped != 0 {
				t.Errorf("report %+v; want transaction %d pending, no stale log entries", rep, cur)
			}
			// The walk and null recovery are two parts of attach, timed apart.
			if rep.Walk <= 0 || rep.NullRecovery <= 0 || rep.Walk+rep.NullRecovery > rep.Duration {
				t.Errorf("report %+v; want a walk and a null recovery, together within the attach", rep)
			}

			// Two words beyond curTx, far enough apart to fall into two
			// ranges whenever there are two; the higher one is further beyond.
			low, high := tc.heapWords/5, tc.heapWords-7
			dev.FlushPair(0, high, 1, cur+9)
			dev.FlushPair(0, low, 1, cur+1)
			dev.Fence(0)
			dev.Crash()
			_, err = NewPersistentWF(dev, true, opts...)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("heap word %d is durable at sequence %d,", low, cur+1)) {
				t.Fatalf("attach = %v, want ErrCorrupt naming heap word %d at sequence %d", err, low, cur+1)
			}
		})
	}
}

// TestAttachSplitWalkThenNullRecovery: with the walk split (two Ps), what
// attach does after it still sees the whole heap — a pending curTx is applied
// through the helping path, and every slot's operation tag resumes from its
// durable word, so the first wait-free operation after recovery runs instead
// of being answered from the old heap's result word. A wait-free transaction
// is crashed at every persistence event; the report says Pending exactly when
// the image's request was open.
func TestAttachSplitWalkThenNullRecovery(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sawPending, sawClosed := false, false
	for k := 1; ; k++ {
		e, dev := newPTM(t, true, pmem.StrictMode, int64(k))
		e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 100); tx.Store(tm.Root(1), 200); return 1 })
		acked := runUntilCrash(dev, k, func() {
			e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 111); tx.Store(tm.Root(1), 222); return 2 })
		})
		dev.Crash()
		cur, _ := dev.ImagePair(1 << 14) // curTx's image: pair word HeapWords of smallOpts
		open := dev.ImageRaw(hdrWords+tidOf(cur)*slotLogStride(1<<10)) == cur
		r, err := newPTMOn(dev, true, true)
		if err != nil {
			t.Fatalf("k=%d: attach: %v", k, err)
		}
		rep := r.LastRecovery()
		if rep.Ranges != 2 || rep.Pending != open || (open && rep.PendingSeq != seqOf(cur)) || (rep.NullRecovery > 0) != open {
			t.Fatalf("k=%d: report %+v; image's request open = %v at sequence %d", k, rep, open, seqOf(cur))
		}
		sawPending, sawClosed = sawPending || rep.Pending, sawClosed || !rep.Pending
		if got := r.Update(func(tx tm.Tx) uint64 {
			return tx.Load(tm.Root(0))<<16 | tx.Load(tm.Root(1))
		}); got != 100<<16|200 && got != 111<<16|222 || (acked && got != 111<<16|222) {
			t.Fatalf("k=%d acked=%v: first operation after recovery returned %#x", k, acked, got)
		}
		if acked {
			break
		}
	}
	if !sawPending || !sawClosed {
		t.Fatalf("crash points that left curTx pending: %v, not pending: %v; the sweep must reach both", sawPending, sawClosed)
	}
}

// TestAttachRebuildsAStaleView: attach rebuilds every heap word from the
// image, whatever the device's pair view held — on the native build the view
// is the heap, and Crash leaves it as it is. Before the crash a DCAS lands in
// a chunk of the heap the image never wrote and is never flushed; after it,
// junk is written through the view over every other pair line. Every word
// must then read what the image holds, on both persistent engines.
func TestAttachRebuildsAStaleView(t *testing.T) {
	const heapWords = 1 << 14
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			e, dev := newPTM(t, wf, pmem.StrictMode, 1)
			for round := uint64(1); round <= 3; round++ {
				e.Update(func(tx tm.Tx) uint64 {
					p := tx.Alloc(40)
					for i := tm.Ptr(0); i < 40; i++ {
						tx.Store(p+i, round<<32|uint64(i)+1)
					}
					tx.Store(tm.Root(int(round)), uint64(p))
					return 0
				})
			}
			// The chunk: the heap's last four pair lines, never allocated.
			stale := heapWords - 2*pmem.PairLineWords - 1
			for i := heapWords - 4*pmem.PairLineWords; i < heapWords; i++ {
				if v, s := dev.ImagePair(i); v != 0 || s != 0 {
					t.Fatalf("image word %d = (%d,%d) before the crash, want the chunk unwritten", i, v, s)
				}
			}
			if !e.words[stale].CompareAndSwap(0, 0, 0xdead, e.CurSeq()) {
				t.Fatal("DCAS on an unwritten word failed")
			}
			e.Close()
			dev.Crash()
			view, _ := dev.PairView()
			for i := range view[:heapWords] {
				if i/pmem.PairLineWords%2 == 1 {
					view[i] = pmem.Pair{Val: 0xbad<<32 | uint64(i), Seq: 1}
				}
			}
			r, err := newPTMOn(dev, wf, true)
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			for i := 0; i < heapWords; i++ {
				iv, is := dev.ImagePair(i)
				if v, s := r.words[i].Load(); v != iv || s != is {
					t.Fatalf("heap word %d = (%d,%d) after attach, image (%d,%d)", i, v, s, iv, is)
				}
			}
		})
	}
}

// TestAttachOverGarbage: recovery gives exactly the image, whatever the
// memory it rebuilds into holds. The heap spans four chunks of the pair image
// (pmem.PairChunkWords), of which the image writes the first and the last; the
// raw region spans several chunks, of which the redo logs write the first.
// Before the crash every raw word is overwritten with garbage no flush makes
// durable, and after it every word of the pair view (on the native build the
// heap). Crash must give raw view = raw image, and attach heap = pair image,
// word for word — the chunks no write reached zeroed — and report those
// chunks' words zeroed unread: on the simulator and a file device, strict and
// relaxed, both persistent engines.
func TestAttachOverGarbage(t *testing.T) {
	const chunk = pmem.PairChunkWords
	opts := []tm.Option{tm.WithHeapWords(4 * chunk), tm.WithMaxThreads(16), tm.WithMaxStores(1 << 10)}
	devices := map[string]func(t *testing.T, cfg pmem.Config) pmem.Device{
		"sim": func(t *testing.T, cfg pmem.Config) pmem.Device {
			d, err := pmem.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"file": func(t *testing.T, cfg pmem.Config) pmem.Device {
			d, err := filedev.Create(filepath.Join(t.TempDir(), "dev.img"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for name, mk := range devices {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			for _, wf := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/mode=%d/wf=%v", name, mode, wf), func(t *testing.T) {
					cfg := DeviceConfig(mode, 1, opts...)
					dev := mk(t, cfg)
					open := NewPersistentLF
					if wf {
						open = NewPersistentWF
					}
					e, err := open(dev, false, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for round := uint64(1); round <= 3; round++ {
						e.Update(func(tx tm.Tx) uint64 {
							p := tx.Alloc(40)
							for i := tm.Ptr(0); i < 40; i++ {
								tx.Store(p+i, round<<32|uint64(i)+1)
							}
							tx.Store(tm.Root(int(round)), uint64(p))
							tx.Store(tm.Ptr(4*chunk-1-int(round)), round) // the last chunk, never allocated
							return 0
						})
					}
					e.Close()
					for i := range dev.RawWords() {
						dev.RawStore(i, 0xbad<<32|uint64(i))
					}
					dev.Crash()
					for i := range dev.RawWords() {
						if v, img := dev.RawLoad(i), dev.ImageRaw(i); v != img {
							t.Fatalf("raw word %d = %#x after Crash, image %#x", i, v, img)
						}
					}
					view, _ := dev.PairView()
					for i := range view {
						view[i] = pmem.Pair{Val: 0xbad<<32 | uint64(i), Seq: uint64(i)}
					}
					r, err := open(dev, true, opts...)
					if err != nil {
						t.Fatalf("attach: %v", err)
					}
					for i := range r.words {
						iv, is := dev.ImagePair(i)
						if v, s := r.words[i].Load(); v != iv || s != is {
							t.Fatalf("heap word %d = (%#x,%d) after attach, image (%#x,%d)", i, v, s, iv, is)
						}
					}
					if rep := r.LastRecovery(); rep.HeapWords != 4*chunk || rep.WordsZeroed != 2*chunk {
						t.Errorf("report %+v; want %d heap words, %d of them zeroed unread", rep, 4*chunk, 2*chunk)
					}
					if got := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Ptr(4*chunk - 4)) }); got != 3 {
						t.Errorf("the last chunk's word = %d after attach, want 3", got)
					}
				})
			}
		}
	}
}

// TestImagesOnHugePagesAfterAttach: on the native build a persistent
// engine's heap is its device's pair view, advised onto huge pages (pmem's
// TestImagesOnHugePages). After a crash, the view of a txn-wf-sized heap
// (2²¹ words, 32 MiB) is filled with garbage, and attach stores the first
// half, which the image wrote, and hands the pages of the other half back.
// Each half is held to the bytes under it that the kernel reports on huge
// pages (testutil.HugeBytes): the stored half keeps its own but for the one
// it shares with the zeroed half; the zeroed half keeps none but the two at
// its ends; and written again, it gets huge pages back, so the zeroing kept
// the advice. Skipped where a control allocation with the same advice gets
// none.
func TestImagesOnHugePagesAfterAttach(t *testing.T) {
	if !dcas.Native {
		t.Skip("the pointer emulation's heap is a slab of its own")
	}
	const heapWords, written = 1 << 21, 64
	const kept = written * pmem.PairChunkWords
	testutil.HugeControl(t, 16*heapWords)
	opts := []tm.Option{tm.WithHeapWords(heapWords), tm.WithMaxThreads(2), tm.WithMaxStores(2 * written)}
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPersistentLF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx tm.Tx) uint64 {
		for c := range written {
			tx.Store(tm.Ptr(c*pmem.PairChunkWords+pmem.PairChunkWords/2), uint64(c)+1)
		}
		return 0
	})
	e.Close()
	dev.Crash()
	view, _ := dev.PairView()
	for i := range view {
		view[i] = pmem.Pair{Val: uint64(i) + 1, Seq: 1}
	}
	stored := unsafe.Slice(&view[0].Val, 2*kept)
	zeroed := unsafe.Slice(&view[kept].Val, 2*(heapWords-kept))
	storedBefore, zeroedBefore := testutil.HugeBytes(t, stored), testutil.HugeBytes(t, zeroed)
	r, err := NewPersistentLF(dev, true, opts...)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	storedAfter, zeroedAfter := testutil.HugeBytes(t, stored), testutil.HugeBytes(t, zeroed)
	regained := testutil.HugeBytesWritten(t, zeroed)
	t.Logf("bytes on huge pages: the stored half %d before attach, %d after; the zeroed half %d before, %d after, %d written again",
		storedBefore, storedAfter, zeroedBefore, zeroedAfter, regained)
	if storedAfter < storedBefore-hugepage.Size {
		t.Errorf("attach took %d bytes of huge pages from the half it stored, more than the one page it shares with the half it zeroed", storedBefore-storedAfter)
	}
	if zeroedAfter >= zeroedBefore || zeroedAfter > 2*hugepage.Size {
		t.Errorf("attach zeroed %d MiB of view the image never wrote, and %d of its bytes stayed on huge pages (%d before)", (heapWords-kept)*16>>20, zeroedAfter, zeroedBefore)
	}
	if regained <= 0 {
		t.Errorf("the half attach zeroed, written again, got no huge page: the zeroing lost the advice")
	}
	if rep := r.LastRecovery(); rep.WordsZeroed != heapWords-kept {
		t.Errorf("report %+v; want %d words zeroed unread", rep, heapWords-kept)
	}
}

// TestFormatOverAHeapWritesEveryChunk: the old heap's image holds its first
// chunk only, but a format over it writes every heap word above the old
// sequences, so the device then reports the whole heap written and the next
// attach reads all of it, zeroing nothing.
func TestFormatOverAHeapWritesEveryChunk(t *testing.T) {
	const chunk = pmem.PairChunkWords
	opts := []tm.Option{tm.WithHeapWords(3 * chunk), tm.WithMaxThreads(2), tm.WithMaxStores(16)}
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	old, err := NewPersistentLF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	old.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 7); return 0 })
	old.Close()
	if w := dev.WrittenPairs(); len(w) == 0 || w[0].Hi > chunk {
		t.Fatalf("the old heap wrote %v, want its first chunk and curTx's only", w)
	}
	e, err := NewPersistentLF(dev, false, opts...)
	if err != nil {
		t.Fatalf("format over a heap: %v", err)
	}
	if w, want := dev.WrittenPairs(), []pmem.Span{{Lo: 0, Hi: 3*chunk + 1}}; !slices.Equal(w, want) {
		t.Fatalf("after a format over a heap the device reports %v written, want %v", w, want)
	}
	e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 8); return 0 })
	dev.Crash()
	r, err := NewPersistentLF(dev, true, opts...)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if rep := r.LastRecovery(); rep.WordsZeroed != 0 {
		t.Errorf("report %+v; want no word zeroed unread", rep)
	}
	if got := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != 8 {
		t.Errorf("root 0 = %d, want 8", got)
	}
}

// TestFormatClearsAUsedView: format over a device whose pair view an engine
// has used gives the heap format gives over a fresh device: every word format
// does not write reads zero.
func TestFormatClearsAUsedView(t *testing.T) {
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			used, dev := newPTM(t, wf, pmem.StrictMode, 1)
			used.Update(func(tx tm.Tx) uint64 {
				p := tx.Alloc(200)
				for i := tm.Ptr(0); i < 200; i++ {
					tx.Store(p+i, uint64(i)+1)
				}
				tx.Store(tm.Root(0), uint64(p))
				return 0
			})
			used.Close()
			if view, _ := dev.PairView(); dcas.Native && !slices.ContainsFunc(view, func(p pmem.Pair) bool { return p != pmem.Pair{} }) {
				t.Fatal("the used engine left its device's pair view all zero")
			}
			e, err := newPTMOn(dev, wf, false)
			if err != nil {
				t.Fatalf("format over a used device: %v", err)
			}
			fresh, _ := newPTM(t, wf, pmem.StrictMode, 2)
			for i := range e.words {
				v, s := e.words[i].Load()
				if fv, fs := fresh.words[i].Load(); v != fv || s != fs {
					t.Fatalf("heap word %d = (%d,%d) after format over a used device, (%d,%d) over a fresh one", i, v, s, fv, fs)
				}
			}
		})
	}
}

// TestReattachAllocatesNoHeap: on the native build a persistent engine's heap
// is its device's pair view, so re-attaching to a device of txn-wf's size
// (2²¹ words) allocates less than a MiB, where it allocated the heap's 32 MiB
// when the engine had a slab of its own.
func TestReattachAllocatesNoHeap(t *testing.T) {
	if !dcas.Native {
		t.Skip("the pointer emulation's heap is a slab of its own")
	}
	opts := []tm.Option{tm.WithHeapWords(1 << 21), tm.WithMaxThreads(16), tm.WithMaxStores(1 << 15)}
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPersistentLF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 })
	e.Close()
	dev.Crash()
	got := allocatedBy(func() {
		if e, err = NewPersistentLF(dev, true, opts...); err != nil {
			t.Fatalf("attach: %v", err)
		}
	})
	t.Logf("attach allocated %d bytes", got)
	if got >= 1<<20 {
		t.Errorf("attach allocated %d bytes, want less than 1 MiB", got)
	}
	if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); v != 1 {
		t.Errorf("root 0 = %d after attach, want 1", v)
	}
}

// TestFormatOverAHeap: formatting a device whose image holds a heap gives,
// after a crash, the image formatting a fresh device gives. The old heap's
// words and curTx are durable at sequences the device's guard never lets a
// lower one replace: a format written below them leaves the old heap for
// attach to find. The image is the old device's itself, or a copy of it
// loaded into a new device (ReadFrom), whose pair view is fresh.
func TestFormatOverAHeap(t *testing.T) {
	build := func(e *Engine) {
		for i := uint64(1); i <= 50; i++ {
			e.Update(func(tx tm.Tx) uint64 {
				p := tx.Alloc(2)
				tx.Store(p, i)
				tx.Store(p+1, tx.Load(tm.Root(1)))
				tx.Store(tm.Root(1), uint64(p))
				tx.Store(tm.Root(0), min(i, 7))
				return 0
			})
		}
	}
	set99 := func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 99); return 0 }
	for _, wf := range []bool{false, true} {
		for _, copied := range []bool{false, true} {
			t.Run(fmt.Sprintf("wf=%v/copied=%v", wf, copied), func(t *testing.T) {
				old, dev := newPTM(t, wf, pmem.StrictMode, 1)
				build(old)
				old.Close()
				if copied {
					var img strings.Builder
					if _, err := dev.WriteTo(&img); err != nil {
						t.Fatal(err)
					}
					var err error
					if dev, err = pmem.New(DeviceConfig(pmem.StrictMode, 2, smallOpts()...)); err != nil {
						t.Fatal(err)
					}
					if _, err := dev.ReadFrom(strings.NewReader(img.String())); err != nil {
						t.Fatal(err)
					}
				}
				e, err := newPTMOn(dev, wf, false)
				if err != nil {
					t.Fatalf("format over a heap: %v", err)
				}
				e.Update(set99)
				dev.Crash()
				r, err := newPTMOn(dev, wf, true)
				if err != nil {
					t.Fatalf("attach: %v", err)
				}
				if got := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != 99 {
					t.Fatalf("root 0 = %d after format, update to 99 and crash: the old heap came back", got)
				}
				ref, refDev := newPTM(t, wf, pmem.StrictMode, 3)
				ref.Update(set99)
				refDev.Crash()
				for i := range tm.Apply(smallOpts()).HeapWords {
					v, _ := dev.ImagePair(i)
					if rv, _ := refDev.ImagePair(i); v != rv {
						t.Fatalf("image word %d = %d, %d on a device formatted fresh: the old heap survives", i, v, rv)
					}
				}
			})
		}
	}
}

// TestFormatOverAHeapCrash crashes a format over a heap at every persistence
// event. Attach then finds the old heap, an unformatted device, or the new,
// empty heap — never a mix of the two. Whichever it finds, a second format
// over it gives a heap whose updates survive a crash.
func TestFormatOverAHeapCrash(t *testing.T) {
	// Format over a heap writes every heap word: a small heap keeps the
	// sweep, one run per event, short.
	opts := []tm.Option{tm.WithHeapWords(1 << 10), tm.WithMaxThreads(2), tm.WithMaxStores(16)}
	open := func(dev pmem.Device, attach bool) (*Engine, error) { return NewPersistentLF(dev, attach, opts...) }
	roots := func(e *Engine) (a, b uint64) {
		e.Read(func(tx tm.Tx) uint64 { a, b = tx.Load(tm.Root(0)), tx.Load(tm.Root(1)); return 0 })
		return a, b
	}
	// point crashes the format at its k-th event and reports whether it
	// ended first.
	point := func(t *testing.T, mode pmem.Mode, k int, seed int64) (done bool) {
		dev, err := pmem.New(DeviceConfig(mode, seed, opts...))
		if err != nil {
			t.Fatal(err)
		}
		old, err := open(dev, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 10; i++ {
			old.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), i); tx.Store(tm.Root(1), 2*i); return 0 })
		}
		old.Close()
		done = runUntilCrash(dev, k, func() {
			if _, err := open(dev, false); err != nil {
				t.Fatalf("k=%d: format over a heap: %v", k, err)
			}
		})
		dev.Crash()
		r, err := open(dev, true)
		switch {
		case errors.Is(err, ErrNotFormatted) && !done:
		case err != nil:
			t.Fatalf("k=%d done=%v: attach: %v", k, done, err)
		default:
			if a, b := roots(r); (a != 10 || b != 20) && (a != 0 || b != 0) || done && a != 0 {
				t.Fatalf("k=%d done=%v: roots (%d,%d), want the old heap's (10,20) or the new one's (0,0)", k, done, a, b)
			}
			r.Close()
		}
		again, err := open(dev, false)
		if err != nil {
			t.Fatalf("k=%d: format again: %v", k, err)
		}
		again.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 99); return 0 })
		dev.Crash()
		if r, err = open(dev, true); err != nil {
			t.Fatalf("k=%d: attach after the second format: %v", k, err)
		}
		if a, b := roots(r); a != 99 || b != 0 {
			t.Fatalf("k=%d: roots (%d,%d) after a second format and an update, want (99,0)", k, a, b)
		}
		return done
	}
	for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			k := 1
			for ; !point(t, mode, k, int64(k)); k++ {
			}
			// The last event is the fence that makes the header durable. A
			// relaxed crash there keeps a random half of what it orders:
			// more seeds make a header that lands before the heap show.
			for seed := range int64(32) {
				point(t, mode, k-1, 1000+seed)
			}
			t.Logf("%d crash points", k-1)
		})
	}
}

// TestFormatOverAHeapOfAnotherGeometry: format refuses a device whose image
// holds a heap laid out for another configuration, as attach does.
func TestFormatOverAHeapOfAnotherGeometry(t *testing.T) {
	old, dev := newPTM(t, false, pmem.StrictMode, 1)
	old.Close()
	if _, err := NewPersistentLF(dev, false, append(smallOpts(), tm.WithHeapWords(1<<13))...); !errors.Is(err, ErrBadDevice) {
		t.Fatalf("format over a heap of another geometry: err = %v, want ErrBadDevice", err)
	}
}

// TestFormatOverACorruptHeap: an image that attach refuses as corrupt — a
// word durable beyond the durable curTx — can be formatted over, and the
// word does not come back once the new heap's sequences pass it.
func TestFormatOverACorruptHeap(t *testing.T) {
	old, dev := newPTM(t, false, pmem.StrictMode, 1)
	old.Close()
	dev.FlushPair(0, int(tm.Root(5)), 55, 40)
	dev.Fence(0)
	dev.Crash()
	if _, err := newPTMOn(dev, false, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("attach to the corrupt image: err = %v, want ErrCorrupt", err)
	}
	e, err := newPTMOn(dev, false, false)
	if err != nil {
		t.Fatalf("format over a corrupt heap: %v", err)
	}
	for i := uint64(1); i <= 50; i++ {
		e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), i); return 0 })
	}
	dev.Crash()
	r, err := newPTMOn(dev, false, true)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if got := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(5)) }); got != 0 {
		t.Fatalf("root 5 = %d, want 0: the corrupt word survived format", got)
	}
}
