//go:build linux

package testutil

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// pagemapScan is the PAGEMAP_SCAN ioctl of /proc/<pid>/pagemap (Linux 6.7),
// _IOWR('f', 16, struct pm_scan_arg); pageIsHuge is its PAGE_IS_HUGE
// category: the page is part of a huge page mapped whole.
const (
	pagemapScan = 0xc0606610
	pageIsHuge  = 1 << 6
)

// pmScanArg is struct pm_scan_arg; pageRegion is struct page_region.
type pmScanArg struct {
	size, flags, start, end, walkEnd, vec, vecLen, maxPages    uint64
	categoryInverted, categoryMask, categoryAnyofMask, retMask uint64
}

type pageRegion struct{ start, end, categories uint64 }

// HugeBytes returns how many bytes of the memory under words lie on huge
// pages, asking the kernel about exactly that range — where a mapping's
// AnonHugePages in /proc/self/smaps would also count the other allocations
// that share it. It skips tb
// where the kernel cannot say (no PAGEMAP_SCAN: before Linux 6.7) or THP is
// off.
func HugeBytes(tb testing.TB, words []uint64) int {
	tb.Helper()
	thpOn(tb)
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		tb.Skipf("no /proc/self/pagemap: %v", err)
	}
	defer f.Close()
	page := uint64(os.Getpagesize())
	lo := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(words))))
	hi := lo + 8*uint64(len(words))
	// The kernel writes the regions through an address inside arg, so the
	// buffer is pinned where the garbage collector and stack growth cannot
	// move it.
	vec := new([64]pageRegion)
	var pin runtime.Pinner
	pin.Pin(vec)
	defer pin.Unpin()
	total := 0
	for at := lo &^ (page - 1); at < hi; {
		arg := pmScanArg{
			size: uint64(unsafe.Sizeof(pmScanArg{})), start: at, end: (hi + page - 1) &^ (page - 1),
			vec: uint64(uintptr(unsafe.Pointer(&vec[0]))), vecLen: uint64(len(vec)),
			categoryMask: pageIsHuge, retMask: pageIsHuge,
		}
		n, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), pagemapScan, uintptr(unsafe.Pointer(&arg)))
		if errno != 0 {
			if errors.Is(errno, syscall.ENOTTY) || errors.Is(errno, syscall.EINVAL) {
				tb.Skipf("the kernel cannot say which pages are huge (PAGEMAP_SCAN: %v)", errno)
			}
			tb.Fatalf("PAGEMAP_SCAN over [%#x, %#x): %v", at, hi, errno)
		}
		for _, r := range vec[:n] {
			total += int(min(r.end, hi) - max(r.start, lo))
		}
		if arg.walkEnd <= at {
			tb.Fatalf("PAGEMAP_SCAN over [%#x, %#x) made no progress", at, hi)
		}
		at = arg.walkEnd
	}
	runtime.KeepAlive(words)
	return total
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
