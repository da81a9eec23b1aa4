package testutil

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// AnonHugeKB returns the AnonHugePages, in kB, of the mapping in
// /proc/self/smaps that contains addr: how much of it transparent huge pages
// back. It skips tb where there can be none — no smaps (not Linux), or the
// kernel's THP mode is "never".
func AnonHugeKB(tb testing.TB, addr uintptr) int {
	tb.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		tb.Skipf("no transparent huge pages here: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		tb.Skip("transparent huge pages are off (mode never)")
	}
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
