// Package tm defines the engine-neutral transactional-memory interface
// shared by every STM and PTM in this repository.
//
// All engines manage a word-addressed transactional heap: a Ptr is an index
// of a 64-bit word inside that heap, and every datum a transaction touches —
// user data, container nodes, allocator metadata, root slots — is such a
// word. Storing a Ptr into a word is how containers build linked structures,
// which makes the heap position-independent and lets the persistent engines
// map it directly onto the emulated NVM device.
//
// The first word (Ptr 0) is reserved so that 0 can serve as the nil pointer,
// and the following NumRoots words are root slots that survive restarts of a
// persistent engine.
package tm

import "errors"

// Ptr is the index of a 64-bit word in an engine's transactional heap.
// Ptr 0 is the nil pointer and is never returned by an allocator.
type Ptr uint64

// NumRoots is the number of reserved root slots in every engine's heap.
// Root slots are ordinary transactional words located at fixed positions,
// so persistent engines recover them after a crash.
const NumRoots = 64

// RootBase is the heap word index of root slot 0.
const RootBase Ptr = 1

// Root returns the heap word that backs root slot i.
func Root(i int) Ptr {
	if i < 0 || i >= NumRoots {
		panic("tm: root slot out of range")
	}
	return RootBase + Ptr(i)
}

// Tx is the handle a transaction body uses to access the transactional heap.
// A Tx is only valid for the duration of the function invocation it was
// passed to; bodies must not retain it.
//
// Transaction bodies may run more than once (optimistic engines retry after
// conflicts, and the wait-free engines may execute a body on a helper
// thread), so bodies must be side-effect free except through the Tx itself.
type Tx interface {
	// Load returns the current value of the heap word p.
	Load(p Ptr) uint64
	// Store sets the value of the heap word p.
	Store(p Ptr, v uint64)
	// Alloc allocates a block of n contiguous heap words inside the
	// transaction and returns the first word. The block is zeroed.
	// If the transaction does not commit the allocation never happened.
	Alloc(n int) Ptr
	// Free releases a block previously returned by Alloc, inside the
	// transaction. If the transaction does not commit the block remains
	// allocated.
	Free(p Ptr)
}

// MaxLoadN is the most words one RangeLoader.LoadN call reads: a TreeMap
// node.
const MaxLoadN = 32

// RangeLoader is implemented by a Tx that reads a run of consecutive words
// in one call. It is optional: a body probes for it once (tx.(RangeLoader))
// and falls back to Load when the handle lacks it. Only the OneFile
// engines' read-only handle has it; update handles and the baseline engines
// do not.
type RangeLoader interface {
	// LoadN returns words p … p+n−1, 1 ≤ n ≤ MaxLoadN, each validated as
	// Load validates it: the same snapshot, the same abort rule, the same
	// panic on a range outside the heap. The slice is a view into a buffer
	// the handle owns, not a copy: it is valid only until the next LoadN on
	// the same handle or the end of the body, whichever comes first. The
	// body must not write it, keep it, or return it (copy out what it needs
	// longer), and must not hold one view across a call that may itself
	// call LoadN, such as a container's *Tx method.
	LoadN(p Ptr, n int) []uint64
}

// Engine is a transactional-memory engine: four OneFile variants and four
// baseline engines implement it. Engines are safe for concurrent use.
type Engine interface {
	// Update runs fn as a read-write (mutative) transaction and returns
	// fn's result. fn may run multiple times and, on the wait-free
	// engines, possibly on another goroutine — where it may still be
	// running after Update has returned. The paper's std::function copies
	// what it captures; a Go closure does not. So fn must not write the
	// variables it captures, and the caller must not change them after
	// the call either (a reused buffer, a loop variable assigned to).
	// Collect takes a result wider than a uint64 out of a body safely.
	// The same holds for Read and for every other entry that takes a body.
	Update(fn func(tx Tx) uint64) uint64
	// Read runs fn as a read-only transaction and returns fn's result.
	// fn must not call Store, Alloc or Free; engines report misuse by
	// panicking with ErrUpdateInReadTx.
	Read(fn func(tx Tx) uint64) uint64
	// Name identifies the engine in benchmark output (e.g. "OF-LF").
	Name() string
	// Stats returns a snapshot of the engine's operation counters.
	Stats() Stats
	// Close releases engine resources. The engine must be idle.
	Close() error
}

// MultiTx is the handle of a cross-shard transaction body running on a
// Sharded store: every access names the shard it targets. Bodies may only
// touch shards that own one of the keys declared to UpdateCross — the
// store panics with ErrShardNotDeclared otherwise — and, like Tx bodies,
// must be side-effect free except through the handle (they may run more
// than once). Cross-shard transactions cannot allocate or free heap
// blocks; allocate in single-shard transactions and link the blocks
// cross-shard.
type MultiTx interface {
	// Load returns the current value of word p on the given shard.
	Load(shard int, p Ptr) uint64
	// Store sets word p on the given shard.
	Store(shard int, p Ptr, v uint64)
}

// Sharded is a partitioned transactional store: N independent engines,
// each the home of the keys a Partitioner maps to it. Single-shard
// transactions run unmodified on their home engine — N disjoint working
// sets commit on N concurrent streams — while cross-shard transactions
// commit atomically across their participants via the store's two-phase
// protocol.
type Sharded interface {
	// Shards returns the number of partitions.
	Shards() int
	// ShardFor returns the home shard of key.
	ShardFor(key uint64) int
	// Update runs fn as an update transaction on key's home shard.
	Update(key uint64, fn func(Tx) uint64) uint64
	// Read runs fn as a read-only transaction on key's home shard.
	Read(key uint64, fn func(Tx) uint64) uint64
	// UpdateCross runs fn as a transaction spanning the home shards of
	// keys, committing atomically across all of them (all shards'
	// effects become durable, or none do — even across a crash).
	UpdateCross(keys []uint64, fn func(MultiTx) uint64) (uint64, error)
	// Stats returns the engines' counters summed.
	Stats() Stats
	// Close closes every shard engine.
	Close() error
}

// Persistent is implemented by the PTM engines.
type Persistent interface {
	Engine
	// Recover re-attaches the engine to its persistence domain after a
	// crash, completing any committed-but-unapplied transaction (for
	// OneFile this is "null recovery": the regular helping path).
	Recover() error
}

// Errors reported by engines. Misuse errors are delivered by panicking,
// following the convention of the standard library for programming errors.
var (
	// ErrUpdateInReadTx reports a Store/Alloc/Free inside a read-only
	// transaction.
	ErrUpdateInReadTx = errors.New("tm: mutation inside read-only transaction")
	// ErrHeapFull reports that an allocation could not be satisfied.
	ErrHeapFull = errors.New("tm: transactional heap exhausted")
	// ErrBadFree reports a Free of a pointer that is not the start of a
	// live allocated block.
	ErrBadFree = errors.New("tm: free of invalid pointer")
	// ErrTooManyStores reports a transaction exceeding the per-transaction
	// write-set capacity (Config.MaxStores). On the OneFile wait-free
	// engines the capacity of every update is MaxStores−2, whether it
	// commits on its own or published inside another thread's aggregate,
	// which reserves two result words beside it: a body of MaxStores−1
	// stores fails there however contended the engine is. The contract is
	// uniform across every engine: the Store/Alloc/Free that would overflow
	// panics with exactly this value, the transaction's effects are fully
	// undone (eager engines roll back their in-place stores and release
	// their locks; lazy engines just discard the buffer), and the engine
	// remains usable. Layers with an error return translate the panic:
	// futures carry it as the operation's error (Future.Wait),
	// and a sharded store's UpdateCross returns it wrapped when the
	// cross-shard staging area would overflow a participant.
	ErrTooManyStores = errors.New("tm: transaction write-set overflow")
	// ErrNoThreadSlot reports that more goroutines entered transactions
	// concurrently than the engine was configured for.
	ErrNoThreadSlot = errors.New("tm: no free thread slot (raise MaxThreads)")
	// ErrEngineClosed reports a transaction begun after Close. Engines
	// fail such transactions fast (by panicking with this value) instead
	// of waiting for a slot that will never be released.
	ErrEngineClosed = errors.New("tm: engine is closed")
	// ErrShardNotDeclared reports a MultiTx access to a shard that owns
	// none of the keys declared to UpdateCross. Sharded stores panic with
	// this value: only declared shards are quiesced for the cross-shard
	// window, so the access would race.
	ErrShardNotDeclared = errors.New("tm: access to a shard not declared to UpdateCross")
	// ErrNoKeys reports an UpdateCross call with an empty key set.
	ErrNoKeys = errors.New("tm: UpdateCross requires at least one key")
)

// Stats is a snapshot of engine activity counters. Persistence counters are
// zero for the volatile engines.
type Stats struct {
	Commits      uint64 // committed update transactions
	Aborts       uint64 // aborted+retried transaction bodies
	ReadCommits  uint64 // completed read-only transactions
	ReadAborts   uint64 // read-only validation failures (retries)
	Helps        uint64 // apply phases executed on behalf of another tx
	CAS          uint64 // single-word CAS operations on shared TM state
	DCAS         uint64 // double-word CAS operations (TM word applies)
	Pwb          uint64 // persistent write-backs issued
	Pfence       uint64 // persistent fences issued
	Pdrain       uint64 // ordering drains issued (atomic-RMW-as-fence points)
	AggregatedOp uint64 // operations executed via wait-free aggregation
	Batches      uint64 // batch transactions executed (AsyncUpdate, BatchUpdate)
	BatchedOps   uint64 // operations that ran through batch transactions
	// ReadsBeforePending counts read-only transactions that found the last
	// committed transaction still being applied and completed at the
	// snapshot before it, without helping (OneFile's first read attempt).
	ReadsBeforePending uint64

	// FastCommits is always 0.
	//
	// Deprecated: the small commit it counted is removed (DESIGN.md §8); the
	// field stays only because the frozen benchmark/metrics.go:313 reads it.
	FastCommits uint64
}

// Add returns the counter-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Commits:      s.Commits + o.Commits,
		Aborts:       s.Aborts + o.Aborts,
		ReadCommits:  s.ReadCommits + o.ReadCommits,
		ReadAborts:   s.ReadAborts + o.ReadAborts,
		Helps:        s.Helps + o.Helps,
		CAS:          s.CAS + o.CAS,
		DCAS:         s.DCAS + o.DCAS,
		Pwb:          s.Pwb + o.Pwb,
		Pfence:       s.Pfence + o.Pfence,
		Pdrain:       s.Pdrain + o.Pdrain,
		AggregatedOp: s.AggregatedOp + o.AggregatedOp,
		Batches:      s.Batches + o.Batches,
		BatchedOps:   s.BatchedOps + o.BatchedOps,
		FastCommits:  s.FastCommits + o.FastCommits,

		ReadsBeforePending: s.ReadsBeforePending + o.ReadsBeforePending,
	}
}

// Sub returns the counter-wise difference s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Commits:      s.Commits - o.Commits,
		Aborts:       s.Aborts - o.Aborts,
		ReadCommits:  s.ReadCommits - o.ReadCommits,
		ReadAborts:   s.ReadAborts - o.ReadAborts,
		Helps:        s.Helps - o.Helps,
		CAS:          s.CAS - o.CAS,
		DCAS:         s.DCAS - o.DCAS,
		Pwb:          s.Pwb - o.Pwb,
		Pfence:       s.Pfence - o.Pfence,
		Pdrain:       s.Pdrain - o.Pdrain,
		AggregatedOp: s.AggregatedOp - o.AggregatedOp,
		Batches:      s.Batches - o.Batches,
		BatchedOps:   s.BatchedOps - o.BatchedOps,
		FastCommits:  s.FastCommits - o.FastCommits,

		ReadsBeforePending: s.ReadsBeforePending - o.ReadsBeforePending,
	}
}
