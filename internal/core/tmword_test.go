package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"onefile/internal/dcas"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// TestHeapSlabPointerFree: on the native build the transactional heap is
// one slab of 16-byte words with nothing in it for the collector to trace —
// the property that takes the heap out of GC mark work.
func TestHeapSlabPointerFree(t *testing.T) {
	if !dcas.Native {
		t.Skip("pointer-emulated TM words (race build or no 128-bit CAS)")
	}
	e := NewLF(smallOpts()...)
	defer e.Close()
	if len(e.words) != 1<<14 {
		t.Fatalf("heap has %d words, want %d", len(e.words), 1<<14)
	}
	typ := reflect.TypeOf(e.words).Elem()
	if typ.Size() != 16 {
		t.Fatalf("TM word is %d bytes, want 16", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k != reflect.Uint64 {
			t.Fatalf("TM word field %s is a %v: the slab must hold no pointers", typ.Field(i).Name, k)
		}
	}
	if a := uintptr(unsafe.Pointer(&e.words[0])); a%16 != 0 {
		t.Fatalf("heap slab at %#x is not 16-byte aligned", a)
	}
}

// TestEngineLayout holds the offsets of the engine's hot fields. `txn-wf`
// reads several percent apart between builds whose only difference is
// where these fields land (ROADMAP item 10), so a change to the fields
// before them must keep them where they are, as combiner's tail pad does.
// The figures are amd64's, with and without -race.
func TestEngineLayout(t *testing.T) {
	// exclusive's tail pad keeps it a whole number of 64-byte lines, so
	// the fields after it stay line-aligned; the pad is sized for 8-byte
	// pointers.
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(exclusive{})%64 != 0 {
		t.Errorf("sizeof(exclusive) = %d, not a whole number of 64-byte lines", unsafe.Sizeof(exclusive{}))
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("offsets measured on amd64")
	}
	var e Engine
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"obsv", unsafe.Offsetof(e.obsv), 704},
		{"excl", unsafe.Offsetof(e.excl), 712},
		{"curTx", unsafe.Offsetof(e.curTx), 904},
		{"published", unsafe.Offsetof(e.published), 968},
		{"claimHint", unsafe.Offsetof(e.claimHint), 1032},
		{"sizeof(Engine)", unsafe.Sizeof(e), 1096},
	} {
		if f.got != f.want {
			t.Errorf("%s at %d, want %d", f.name, f.got, f.want)
		}
	}
}

// TestUpdateSteadyStateAllocs: a steady-state update transaction allocates
// nothing on any variant — a lone wait-free update runs unpublished, with no
// descriptor. The published path allocates the operation descriptor
// (§III-E), one whether the body writes one word or sixteen. AsyncUpdate is
// Update with its failure returned: it allocates its future and nothing
// else.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	if !dcas.Native {
		t.Skip("the pointer emulation allocates one pair per DCAS by design")
	}
	const wfDescriptorAllocs, futureAllocs = 1, 1
	narrow := func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
		return 0
	}
	wide := func(tx tm.Tx) uint64 {
		for i := 0; i < 16; i++ {
			tx.Store(tm.Root(i), tx.Load(tm.Root(i))+1)
		}
		return 0
	}
	for _, tc := range []struct {
		name       string
		waitFree   bool
		persistent bool
	}{
		{"OF-LF", false, false}, {"OF-WF", true, false},
		{"OF-LF-PTM", false, true}, {"OF-WF-PTM", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e *Engine
			switch {
			case tc.persistent:
				e, _ = newPTM(t, tc.waitFree, pmem.StrictMode, 1)
			case tc.waitFree:
				e = NewWF(smallOpts()...)
			default:
				e = NewLF(smallOpts()...)
			}
			defer e.Close()
			for name, body := range map[string]func(tm.Tx) uint64{"1 word": narrow, "16 words": wide} {
				for i := 0; i < 200; i++ {
					e.Update(body) // warm up: scratch slices
					e.UpdatePublished(body)
					e.AsyncUpdate(body)
				}
				if got := testing.AllocsPerRun(200, func() { e.Update(body) }); got != 0 {
					t.Errorf("%s: %v allocs per update, want 0", name, got)
				}
				if got := testing.AllocsPerRun(200, func() { e.AsyncUpdate(body) }); got != futureAllocs {
					t.Errorf("%s: %v allocs per AsyncUpdate, want %v", name, got, futureAllocs)
				}
				if !tc.waitFree {
					continue
				}
				if got := testing.AllocsPerRun(200, func() { e.UpdatePublished(body) }); got > wfDescriptorAllocs {
					t.Errorf("%s: %v allocs per published update, want at most %v", name, got, wfDescriptorAllocs)
				}
			}
		})
	}
}

// TestAttachAllocsIndependentOfLiveWords: recovery allocates the engine and
// the walk's per-range results, not one object per recovered word.
func TestAttachAllocsIndependentOfLiveWords(t *testing.T) {
	if !dcas.Native {
		t.Skip("the pointer emulation allocates one pair per recovered word by design")
	}
	attachAllocs := func(live int) float64 {
		e, dev := newPTM(t, false, pmem.StrictMode, 1)
		for base := 0; base < live; base += 256 {
			e.Update(func(tx tm.Tx) uint64 {
				p := tx.Alloc(256)
				for i := tm.Ptr(0); i < 256; i++ {
					tx.Store(p+i, uint64(base)+uint64(i)+1)
				}
				return 0
			})
		}
		e.Close()
		dev.Crash()
		return testing.AllocsPerRun(3, func() {
			r, err := newPTMOn(dev, false, true)
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			r.Close()
		})
	}
	few, many := attachAllocs(256), attachAllocs(8192)
	if many > few+2 {
		t.Fatalf("attach allocated %v times with 256 live words and %v with 8192: recovery must not allocate per word", few, many)
	}
}
