//go:build amd64

package dcas

import (
	"runtime"
	"testing"
	"unsafe"

	"onefile/internal/hugepage"
	"onefile/internal/testutil"
)

// TestSlabAlignment: every word of a slab of any length — odd ones
// included — is 16-byte aligned and usable by the DCAS.
func TestSlabAlignment(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 7, 15, 17, 255, 1023, 4097, 1<<16 + 1} {
		s := NewSlab(n)
		if len(s) != n {
			t.Fatalf("NewSlab(%d) has %d words", n, len(s))
		}
		for i := range s {
			if a := uintptr(unsafe.Pointer(&s[i])); a%16 != 0 {
				t.Fatalf("NewSlab(%d)[%d] at %#x is not 16-byte aligned", n, i, a)
			}
		}
		if n > 0 && !s[n-1].CompareAndSwap(0, 0, 1, 1) {
			t.Fatalf("NewSlab(%d): CAS on the last word failed", n)
		}
	}
}

// TestAlign16Shifts: a backing array that starts 8 bytes off a 16-byte
// boundary is shifted onto one, inside its own spare word.
func TestAlign16Shifts(t *testing.T) {
	const n = 5
	raw := NewSlab(n + 2)
	off := unsafe.Slice((*TMWord)(unsafe.Add(unsafe.Pointer(&raw[0]), 8)), n+1)
	s := align16(off, n)
	if a := uintptr(unsafe.Pointer(&s[0])); a%16 != 0 {
		t.Fatalf("align16 returned %#x", a)
	}
	if &s[0] != &raw[1] || len(s) != n {
		t.Fatalf("align16 returned %d words at %p, want %d at %p", len(s), &s[0], n, &raw[1])
	}
}

// TestSlabOnHugePages: a slab of txn-wf's size (2²¹ words, 32 MiB), once
// used, lies on transparent huge pages where the kernel has them (package
// hugepage), but for at most the huge page at either end: NewSlab advises its
// aligned interior. Used: where MADV_COLLAPSE is refused, huge pages come
// only as the advised range is faulted in. A control allocation of the same
// size with the same advice comes first: where the kernel gives it no huge
// page (THP off, or none free on the host at that moment) the test is
// skipped, since it could tell nothing about the code. The slab is held to
// the bytes under it that the kernel reports on huge pages
// (testutil.HugeBytes). A slab is the volatile engines' heap; a persistent
// engine's words are its device's pair view, which pmem's
// TestImagesOnHugePages holds to the same.
func TestSlabOnHugePages(t *testing.T) {
	const words = 1 << 21
	testutil.HugeControl(t, 16*words)
	s := NewSlab(words)
	got := testutil.HugeBytesWritten(t, unsafe.Slice(&s[0].val, 2*len(s)))
	t.Logf("the slab, once written, has %d of its %d bytes on huge pages", got, 16*len(s))
	if least := 16*len(s) - 2*hugepage.Size; got < least {
		t.Errorf("a %d MiB slab, once written, has %d of its bytes on huge pages, want at least %d", len(s)*16>>20, got, least)
	}
	runtime.KeepAlive(s)
}

// TestTMWordLayout: the word is the paper's — 16 bytes, value in the low
// quadword (RAX/RBX of CMPXCHG16B), sequence in the high one (RDX/RCX).
func TestTMWordLayout(t *testing.T) {
	var w TMWord
	if unsafe.Sizeof(w) != 16 || unsafe.Offsetof(w.val) != 0 || unsafe.Offsetof(w.seq) != 8 {
		t.Fatalf("TMWord layout: size %d, val@%d, seq@%d", unsafe.Sizeof(w), unsafe.Offsetof(w.val), unsafe.Offsetof(w.seq))
	}
}
