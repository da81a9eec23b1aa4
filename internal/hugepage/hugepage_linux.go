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
	advise(interior(s, Size))
	runtime.KeepAlive(s)
}

// AdviseWhole is Advise over every huge page s reaches into, the two at its
// ends too, where Advise takes only those wholly inside it. For a slice of a
// few huge pages that is the difference between all of it and as little as
// half: the runtime lays large allocations side by side with no regard for
// huge-page boundaries, so the pages at the ends are shared with whatever
// lies next to s — often the slice allocated just before or after it. The
// advice and the collapse change no byte's content, so extending them over a
// neighbour's bytes changes nothing the neighbour can observe; it only lets
// those bytes share a huge page with s.
func AdviseWhole[T any](s []T) {
	if len(s) > 0 {
		advise(outer(s, Size))
	}
	runtime.KeepAlive(s)
}

// advise applies both advices to [lo, hi), which is Size-aligned.
func advise(lo, hi uintptr) {
	if hi <= lo {
		return
	}
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_HUGEPAGE)
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, madvCollapse)
}

// Zero sets every element of s to its zero value. The pages wholly inside s
// go back to the kernel (MADV_DONTNEED): they read as zeros from then on and
// cost nothing until written again, so zeroing memory that is already zero
// and gone costs a system call, not a pass over it. Only the elements on the
// partial pages at either end are cleared with stores; so is all of s if the
// kernel refuses. s must be pointer-free — the garbage collector does not see
// the pages go — and no other goroutine may use it meanwhile. A range that
// had the huge-page advice keeps it.
func Zero[T any](s []T) {
	page := uintptr(syscall.Getpagesize())
	lo, hi := interior(s, page)
	if hi <= lo {
		clear(s)
		return
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_DONTNEED); errno != 0 {
		clear(s)
		return
	}
	var zero T
	size := unsafe.Sizeof(zero)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	clear(s[:(lo-start+size-1)/size]) // the elements that reach below lo
	clear(s[(hi-start)/size:])        // and those that reach above hi
	runtime.KeepAlive(s)
}

// outer returns the bounds [lo, hi) of the align-aligned blocks that the
// memory under s reaches into.
func outer[T any](s []T, align uintptr) (lo, hi uintptr) {
	var zero T
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo = start &^ (align - 1)
	hi = (start + uintptr(len(s))*unsafe.Sizeof(zero) + align - 1) &^ (align - 1)
	return lo, hi
}

// interior returns the bounds [lo, hi) of the align-aligned part of the
// memory under s; hi ≤ lo when no whole aligned block lies inside it.
func interior[T any](s []T, align uintptr) (lo, hi uintptr) {
	var zero T
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo = (start + align - 1) &^ (align - 1)
	hi = (start + uintptr(len(s))*unsafe.Sizeof(zero)) &^ (align - 1)
	return lo, hi
}
