//go:build !linux

package hugepage

// Advise does nothing off Linux: the advice it gives there has no portable
// equivalent.
func Advise[T any](s []T) {}
