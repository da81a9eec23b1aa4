package pmem

import (
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

// TestImagesOnHugePages: New's pair image of a txn-wf-sized device (2²¹ TM
// words, 32 MiB), once written, is backed by transparent huge pages where
// the kernel has them (package hugepage); skipped where THP is off. Under
// the race detector it also shows that the advice passes checkptr.
func TestImagesOnHugePages(t *testing.T) {
	d, err := New(Config{RawWords: LineWords, PairWords: 1 << 21, MaxSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(d.pairImg); i += 4096 / 8 {
		d.pairImg[i] = 1
	}
	start := uintptr(unsafe.Pointer(&d.pairImg[0]))
	first := (start + hugepage.Size - 1) &^ (hugepage.Size - 1) // the first whole huge page
	kb := testutil.AnonHugeKB(t, first)
	t.Logf("the mapping holding the image's first whole huge page has %d kB on huge pages", kb)
	if kb == 0 {
		t.Errorf("a %d MiB pair image has no huge page", len(d.pairImg)*8>>20)
	}
}
