package hugepage

import (
	"fmt"
	"testing"
)

// TestZero: Zero sets exactly the elements of the slice to their zero value,
// whatever the slice's length and its offset into the allocation — the pages
// inside it go back to the kernel, the elements on the partial pages at either
// end are cleared, and an element of 24 bytes straddles page boundaries — and
// leaves the memory on either side alone. Memory zeroed this way holds what
// is written to it afterwards.
func TestZero(t *testing.T) {
	for _, tc := range []struct{ off, n int }{
		{0, 0}, {1, 3}, {5, 300}, {3, 1<<16 + 7}, {0, 1 << 16}, {1, 1 << 17},
	} {
		t.Run(fmt.Sprintf("off=%d/n=%d", tc.off, tc.n), func(t *testing.T) {
			mem := make([][3]uint64, tc.off+tc.n+9)
			fill := func(i int) [3]uint64 { return [3]uint64{uint64(i) + 1, ^uint64(i), 7} }
			for i := range mem {
				mem[i] = fill(i)
			}
			s := mem[tc.off : tc.off+tc.n]
			Zero(s)
			for i, v := range mem {
				want := fill(i)
				if i >= tc.off && i < tc.off+tc.n {
					want = [3]uint64{}
				}
				if v != want {
					t.Fatalf("element %d = %v after Zero, want %v", i, v, want)
				}
			}
			for i := range s {
				s[i] = fill(i)
			}
			for i, v := range s {
				if v != fill(i) {
					t.Fatalf("element %d = %v written after Zero, want %v", i, v, fill(i))
				}
			}
		})
	}
}
