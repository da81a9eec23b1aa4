package testutil

import (
	"runtime"
	"testing"

	"onefile/internal/hugepage"
)

// HugeBytesWritten writes one word in every 4 KiB of words, so that every
// page under them is faulted in, and returns HugeBytes of words.
func HugeBytesWritten(tb testing.TB, words []uint64) int {
	tb.Helper()
	for i := 0; i < len(words); i += 4096 / 8 {
		words[i] = 1
	}
	return HugeBytes(tb, words)
}

// HugeControl asks for huge pages under a control allocation of the given
// size, as package hugepage asks for them under the images, writes it, and
// skips tb if the kernel put none of it on huge pages: the host has none to
// give at that moment (THP on, but its 2 MiB frames taken), and a test of the
// code's advice can tell nothing then. The control lives until tb ends, so
// that the memory under it, already on huge pages, is not what the test
// allocates next.
func HugeControl(tb testing.TB, bytes int) {
	tb.Helper()
	control := make([]uint64, bytes/8)
	tb.Cleanup(func() { runtime.KeepAlive(control) })
	hugepage.Advise(control)
	got := HugeBytesWritten(tb, control)
	tb.Logf("writing a %d MiB control with the same advice put %d kB of it on huge pages", bytes>>20, got>>10)
	if got <= 0 {
		tb.Skipf("the kernel gave a %d MiB control allocation no huge page: none to give on this host now", bytes>>20)
	}
}
