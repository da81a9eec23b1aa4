// Package hugepage manages the pages under a large, long-lived, pointer-free
// Go allocation. The engine's heap slab and the simulator's images are tens
// of MiB read at random: on 4 KiB pages nearly every miss also walks the page
// tables, and the Go runtime advises none of its heap, so under the common
// THP mode "madvise" they never get huge pages (Advise). Recovery zeroes the
// parts of them no image ever wrote, and writing zeros over tens of MiB costs
// more than the copy it saves; handing the pages back costs nothing once
// they are gone (Zero).
//
// Neither moves an address or changes an allocation: the slice stays an
// ordinary Go object with the lifetime the garbage collector gives it. Advise
// takes the aligned interior of the slice, the huge pages wholly inside it;
// AdviseWhole takes every huge page the slice reaches into, sharing the two at
// its ends with whatever lies beside it — the choice for slices of a few huge
// pages each, which the runtime lays side by side at any offset.
package hugepage

// Size is the huge page size Advise aligns to: 2 MiB, the PMD size of x86-64
// and of arm64 with 4 KiB pages.
const Size = 2 << 20
