package tm

// The small commit (a second, cheaper commit protocol for write-sets of at
// most two words) is removed: DESIGN.md §8. The frozen benchmark module
// still compiles against two of its names; the benchmark-only PR that drops
// the core.small_update_ns and core.fast_commit_frac readings deletes this
// file, core.Engine.UpdateSmall and Stats.FastCommits with them. Nothing
// else may use them (CI checks).

// SmallOutcome carries no information any more.
//
// Deprecated: needed by benchmark/trace.go:319 only.
type SmallOutcome uint8

// SmallUpdater is Update under another name.
//
// Deprecated: needed by benchmark/trace.go:294 and benchmark/txn.go:167 only.
type SmallUpdater interface {
	UpdateSmall(fn func(Tx) uint64) (uint64, SmallOutcome)
}
