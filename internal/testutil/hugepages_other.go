//go:build !linux

package testutil

import "testing"

// HugeBytes skips tb off Linux: only its kernel says which pages are huge.
func HugeBytes(tb testing.TB, words []uint64) int {
	tb.Helper()
	tb.Skip("no transparent huge pages off Linux")
	return 0
}
