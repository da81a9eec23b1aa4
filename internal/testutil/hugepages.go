package testutil

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"onefile/internal/hugepage"
)

// AnonHugeKB returns the AnonHugePages, in kB, of the mapping in
// /proc/self/smaps that contains addr: how much of it transparent huge pages
// back. It skips tb where there can be none — no smaps (not Linux), or the
// kernel's THP mode is "never".
func AnonHugeKB(tb testing.TB, addr uintptr) int {
	tb.Helper()
	thpOn(tb)
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		tb.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		// A mapping's header starts "lo-hi perms ...", in hex; its fields
		// follow as "Name: value kB".
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok {
			l, errL := strconv.ParseUint(lo, 16, 64)
			h, errH := strconv.ParseUint(hi, 16, 64)
			if errL == nil && errH == nil {
				in = uint64(addr) >= l && uint64(addr) < h
				continue
			}
		}
		if in && fields[0] == "AnonHugePages:" && len(fields) >= 2 {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				tb.Fatalf("smaps: %q: %v", sc.Text(), err)
			}
			return kb
		}
	}
	tb.Fatalf("no mapping in /proc/self/smaps holds %#x", addr)
	return 0
}

// thpOn skips tb unless the kernel has transparent huge pages on.
func thpOn(tb testing.TB) {
	tb.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		tb.Skipf("no transparent huge pages here: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		tb.Skip("transparent huge pages are off (mode never)")
	}
}

// HugeKBOnWrite writes one word in every 4 KiB of words and returns the kB of
// huge pages that adds to the mapping holding the first whole huge page
// inside words. Skips as AnonHugeKB does.
func HugeKBOnWrite(tb testing.TB, words []uint64) int {
	tb.Helper()
	start := uintptr(unsafe.Pointer(unsafe.SliceData(words)))
	first := (start + hugepage.Size - 1) &^ (hugepage.Size - 1)
	before := AnonHugeKB(tb, first)
	for i := 0; i < len(words); i += 4096 / 8 {
		words[i] = 1
	}
	return AnonHugeKB(tb, first) - before
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
	kb := HugeKBOnWrite(tb, control)
	tb.Logf("writing a %d MiB control with the same advice put %d kB of it on huge pages", bytes>>20, kb)
	if kb <= 0 {
		tb.Skipf("the kernel gave a %d MiB control allocation no huge page: none to give on this host now", bytes>>20)
	}
}
