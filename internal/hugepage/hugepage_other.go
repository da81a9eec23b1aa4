//go:build !linux

package hugepage

// Advise does nothing off Linux: the advice it gives there has no portable
// equivalent.
func Advise[T any](s []T) {}

// AdviseWhole does nothing off Linux, as Advise.
func AdviseWhole[T any](s []T) {}

// Zero sets every element of s to its zero value.
func Zero[T any](s []T) { clear(s) }
