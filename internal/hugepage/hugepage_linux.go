//go:build linux

package hugepage

import (
	"runtime"
	"syscall"
	"unsafe"
)

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall does not
// name.
const madvCollapse = 25

// Advise applies MADV_HUGEPAGE and then MADV_COLLAPSE to the Size-aligned
// interior of s. The first marks the range eligible for huge pages when THP
// is in "madvise" mode, so pages faulted in later come huge; the second
// rebuilds the pages already present as huge pages now. Every error is
// ignored: an older kernel, THP "never", or no free 2 MiB frame leaves s on
// the pages it had, which is only slower.
//
// The addresses go to the raw system call as uintptr and are never turned
// back into a pointer, which the race detector's checkptr would reject.
func Advise[T any](s []T) {
	var zero T
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := (start + Size - 1) &^ (Size - 1)
	hi := (start + uintptr(len(s))*unsafe.Sizeof(zero)) &^ (Size - 1)
	if hi <= lo {
		return
	}
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_HUGEPAGE)
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, madvCollapse)
	runtime.KeepAlive(s)
}
