// Package hugepage asks the kernel to back a large, long-lived Go allocation
// with transparent huge pages. The engine's heap slab and the simulator's
// images are tens of MiB read at random: on 4 KiB pages nearly every miss
// also walks the page tables, and the Go runtime advises none of its heap,
// so under the common THP mode "madvise" they never get huge pages.
//
// The advice moves no address and changes no allocation: the slice stays an
// ordinary Go object with the lifetime the garbage collector gives it. Only
// the 2 MiB-aligned interior of the slice is advised, because advice is per
// page and the head and tail pages may hold other objects.
package hugepage

// Size is the huge page size Advise aligns to: 2 MiB, the PMD size of x86-64
// and of arm64 with 4 KiB pages.
const Size = 2 << 20
