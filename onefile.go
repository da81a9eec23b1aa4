// Package onefile is a Go implementation of OneFile — the wait-free
// persistent transactional memory of Ramalhete, Correia, Felber and Cohen
// (DSN 2019) — together with its software-transactional-memory variants for
// volatile memory.
//
// OneFile lets ordinary sequential data-structure code run as wait-free
// (or lock-free) transactions, with integrated wait-free memory
// reclamation; the persistent variants add durable linearizability on an
// emulated NVM device with crash recovery that needs no recovery code at
// all ("null recovery"). See README.md for a tour and DESIGN.md for the
// architecture.
//
// The four engines of the paper:
//
//	e := onefile.NewLockFree()                  // lock-free STM
//	e := onefile.NewWaitFree()                  // bounded wait-free STM
//	nvm := onefile.NewNVM(onefile.Strict, 0)    // emulated NVM DIMM
//	e, err := nvm.OpenLockFree(false)           // lock-free PTM
//	e, err := nvm.OpenWaitFree(false)           // wait-free PTM
//
// A transaction is a function over a word-addressed transactional heap:
//
//	cnt := onefile.Root(0)
//	e.Update(func(tx onefile.Tx) uint64 {
//	    tx.Store(cnt, tx.Load(cnt)+1)
//	    return 0
//	})
//
// Transaction bodies may run more than once (and, on the wait-free
// engines, on helper goroutines), so they must be pure apart from their
// effects through the Tx. The containers subpackage provides ready-made
// wait-free queues, stacks, sets, hash sets and red-black trees built on
// this API.
package onefile

import (
	"io"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// Re-exported engine-neutral types. Ptr is a word index in the
// transactional heap (0 is nil); Root(i) returns the i-th of NumRoots
// persistent root slots.
type (
	// Engine is a OneFile transactional-memory engine.
	Engine = tm.Engine
	// Tx is the handle a transaction body uses to access the heap.
	Tx = tm.Tx
	// Ptr is a transactional heap pointer (word index).
	Ptr = tm.Ptr
	// Option customises engine sizing.
	Option = tm.Option
	// Stats is a snapshot of engine activity counters.
	Stats = tm.Stats
	// Future is the result of an AsyncUpdate, resolved before it is
	// returned.
	Future = tm.Future
	// BatchResult is one operation's outcome in a Batch call.
	BatchResult = tm.BatchResult
	// Combining is implemented by engines that run a batch of operations
	// as one transaction (all four OneFile variants).
	Combining = tm.Combining
)

// Batch entry points (DESIGN.md §10). On the OneFile engines a batch's
// operations run on the caller in as few physical transactions as the
// batch bound allows, sharing one commit pipeline and — on the persistent
// variants — one persistence-fence round; elsewhere they fall back to plain
// Update.
var (
	// AsyncUpdate runs fn as Update does and returns its resolved
	// future: a body panic is the future's error.
	AsyncUpdate = tm.AsyncUpdate
	// Batch runs every fn as an update operation and returns the results
	// in order; on a Combining engine one batch transaction's operations
	// commit (and persist) atomically.
	Batch = tm.Batch
)

// NumRoots is the number of root slots in every engine's heap.
const NumRoots = tm.NumRoots

// Root returns the heap word backing root slot i (0 ≤ i < NumRoots).
func Root(i int) Ptr { return tm.Root(i) }

// Sizing options (see internal/tm for defaults).
var (
	// WithHeapWords sets the transactional heap size in 64-bit words.
	WithHeapWords = tm.WithHeapWords
	// WithMaxThreads sets the number of concurrent transaction slots.
	WithMaxThreads = tm.WithMaxThreads
	// WithMaxStores sets the per-transaction write-set capacity.
	WithMaxStores = tm.WithMaxStores
	// WithReadTries sets the optimistic read-only attempt budget before a
	// wait-free engine publishes the read as an operation.
	WithReadTries = tm.WithReadTries
)

// NewLockFree creates the lock-free OneFile STM (volatile memory).
func NewLockFree(opts ...Option) Engine { return core.NewLF(opts...) }

// NewWaitFree creates the bounded wait-free OneFile STM (volatile memory).
func NewWaitFree(opts ...Option) Engine { return core.NewWF(opts...) }

// Mode selects the durability model of an emulated NVM device.
type Mode int

// Durability models.
const (
	// Strict makes every persistent write-back immediately durable.
	Strict Mode = Mode(pmem.StrictMode)
	// Relaxed buffers write-backs until the next ordering point and loses
	// a random subset of un-ordered ones at a crash — the adversarial
	// model for crash testing.
	Relaxed Mode = Mode(pmem.RelaxedMode)
)

// NVM is an emulated byte-addressable non-volatile memory DIMM sized for
// OneFile PTM engines created with the same options.
type NVM struct {
	dev  pmem.Device
	opts []Option
}

// NewNVM creates a fresh emulated NVM device. opts must match the options
// later passed to OpenLockFree/OpenWaitFree. seed drives the randomised
// crash behaviour of the Relaxed mode.
func NewNVM(mode Mode, seed int64, opts ...Option) (*NVM, error) {
	dev, err := pmem.New(core.DeviceConfig(pmem.Mode(mode), seed, opts...))
	if err != nil {
		return nil, err
	}
	return &NVM{dev: dev, opts: opts}, nil
}

// NewFileNVM opens (or creates, if path does not exist) a real mmap-backed
// NVM device file — the durable alternative to NewNVM's in-process emulation:
// the image lives in the file, so it survives process kills and restarts
// with no snapshot choreography. existed reports whether the file already
// held a device (pass it to OpenLockFree/OpenWaitFree as attach to recover
// its contents). opts must match the options the file was created with; a
// mismatch fails with a size-mismatch error rather than misreading the
// image. Call Close for an orderly shutdown — a file not Closed is a crash
// image, which is exactly what recovery is for.
//
// mode and seed govern the simulated relaxed-ordering adversary just as in
// NewNVM; production use is Strict, where every write-back lands in the
// mapping immediately and every ordering point msyncs.
func NewFileNVM(path string, mode Mode, seed int64, opts ...Option) (n *NVM, existed bool, err error) {
	cfg := core.DeviceConfig(pmem.Mode(mode), seed, opts...)
	dev, created, err := filedev.OpenOrCreate(path, cfg)
	if err != nil {
		return nil, false, err
	}
	return &NVM{dev: dev, opts: opts}, !created, nil
}

// Close releases the device. For a file-backed NVM this is the orderly
// shutdown: buffered write-backs land, the file is msynced and marked
// clean. The emulated in-memory device has nothing to release. No engine
// must be in use on the device afterwards.
func (n *NVM) Close() error { return n.dev.Close() }

// OpenLockFree creates (attach=false) or re-attaches to (attach=true) a
// lock-free OneFile PTM on the device. Re-attaching runs null recovery.
func (n *NVM) OpenLockFree(attach bool) (Engine, error) {
	return core.NewPersistentLF(n.dev, attach, n.opts...)
}

// OpenWaitFree creates or re-attaches to a wait-free OneFile PTM.
func (n *NVM) OpenWaitFree(attach bool) (Engine, error) {
	return core.NewPersistentWF(n.dev, attach, n.opts...)
}

// Crash simulates a full-system power failure: everything not yet durable
// is lost. The device must be quiescent (no goroutine inside a
// transaction). After Crash, re-attach with OpenLockFree/OpenWaitFree —
// the previous Engine must no longer be used.
func (n *NVM) Crash() { n.dev.Crash() }

// PersistStats returns the cumulative pwb and pfence counts of the device.
// Pdrain ordering points (atomic-RMW-as-fence, the OneFile PTMs' only
// ordering mechanism) are not included here; use PersistStats3.
func (n *NVM) PersistStats() (pwb, pfence uint64) {
	s := n.dev.Stats()
	return s.Pwb, s.Pfence
}

// PersistStats3 returns the cumulative pwb, pfence and pdrain counts of
// the device. Pdrain counts ordering points taken as atomic RMWs instead
// of explicit fences — on the OneFile PTMs every ordering point is a
// drain, so a fence/op metric built from pfence alone reads 0 for them.
// Each counter is read with its own atomic load (a per-counter snapshot,
// not a mutually consistent cut); quiesce before deriving ratios.
func (n *NVM) PersistStats3() (pwb, pfence, pdrain uint64) {
	s := n.dev.Stats()
	return s.Pwb, s.Pfence, s.Pdrain
}

// Observability (DESIGN.md §11). A MetricsRegistry unifies the engines'
// counters, latency histograms and flight recorders behind one scrape
// surface; RegisterMetrics attaches an engine to a registry. An engine
// with no registry attached pays one atomic pointer load per transaction
// for the hook — the hot paths stay allocation-free and wait-free.
type (
	// MetricsRegistry is a named directory of counters, gauges, latency
	// histograms and flight recorders, exposable over HTTP as Prometheus
	// text (/metrics) and expvar-style JSON (/debug/vars) via Mount.
	MetricsRegistry = obs.Registry
	// EngineMetrics bundles one engine's latency histograms and flight
	// recorder, as attached by RegisterMetrics.
	EngineMetrics = core.EngineObs
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RegisterMetrics registers every observable of e — all Stats counters,
// contention gauges, per-path latency histograms and a flight recorder —
// in reg under a prefix derived from the engine's name, attaches the sink
// to the engine and returns it. e must be a OneFile engine (any of the
// four variants); other tm.Engine implementations return nil. A nil
// registry detaches nothing and returns nil (the zero-overhead default).
func RegisterMetrics(reg *MetricsRegistry, e Engine) *EngineMetrics {
	ce, ok := e.(*core.Engine)
	if !ok {
		return nil
	}
	return ce.RegisterMetrics(reg, core.MetricsPrefix(ce.Name()))
}

// SaveSnapshot writes the device's durable image to w — exactly the state
// a crash would preserve. Together with LoadSnapshot it lets the emulated
// NVM survive real process restarts (the paper emulates NVM with a file in
// /dev/shm; this is the moral equivalent). The device must be quiescent.
func (n *NVM) SaveSnapshot(w io.Writer) error {
	_, err := n.dev.WriteTo(w)
	return err
}

// LoadSnapshot restores a durable image previously written by SaveSnapshot
// into this device (which must be created with the same options) and
// discards all volatile state, as after a crash. Re-attach with
// OpenLockFree/OpenWaitFree afterwards.
func (n *NVM) LoadSnapshot(r io.Reader) error {
	_, err := n.dev.ReadFrom(r)
	return err
}

// Sharded stores (DESIGN.md §13). OneFile has exactly one serial commit
// stream per engine; a sharded store runs N independent engines behind a
// key partitioner, so disjoint-key workloads get N streams. Transactions
// whose keys live on one shard route to that engine untouched — same cost,
// same progress guarantee; transactions naming keys on several shards
// commit through a two-phase protocol that survives a crash at any point
// (in-doubt shards are resolved from the coordinator's decide record at
// the next attach).
type (
	// Sharded is the interface of a partitioned transactional store.
	Sharded = tm.Sharded
	// MultiTx is the handle a cross-shard transaction body uses: every
	// access names the shard it targets, which must own one of the keys
	// declared to UpdateCross.
	MultiTx = tm.MultiTx
	// ShardedStore is the concrete partitioned store, with per-shard
	// engine access, cross-shard counters and metrics registration beyond
	// the Sharded interface.
	ShardedStore = shard.Store
	// Partitioner maps keys to shards.
	Partitioner = shard.Partitioner
)

// ShardedUserRoots is the number of root slots available per shard of a
// sharded store: the top NumRoots-ShardedUserRoots slots hold the
// cross-shard commit metadata. Root(i) for i < ShardedUserRoots is safe.
const ShardedUserRoots = shard.UserRoots

// HashPartitioner spreads keys over n shards by a mixed hash — the
// default placement when keys carry no locality worth preserving.
func HashPartitioner(n int) Partitioner { return shard.NewHash(n) }

// RangePartitioner splits the key space at the given ascending bounds:
// keys below bounds[0] map to shard 0, keys in [bounds[i-1], bounds[i]) to
// shard i, and keys at or above the last bound to shard len(bounds).
func RangePartitioner(bounds ...uint64) Partitioner { return shard.NewRange(bounds) }

// NewShardedTM creates a volatile sharded store of n lock-free (or, with
// waitFree, bounded wait-free) OneFile STM engines. A nil part defaults to
// HashPartitioner(n). opts size each shard's engine individually.
func NewShardedTM(n int, waitFree bool, part Partitioner, opts ...Option) (*ShardedStore, error) {
	return shard.NewVolatile(n, waitFree, part, opts...)
}

// OpenShardedTM opens (or creates) a persistent sharded store backed by
// one mmap device file per shard under dir, as NewFileNVM does for a
// single engine. existed reports whether dir already held a store, in
// which case it was recovered — including resolution of any cross-shard
// transaction left in doubt by a crash. A directory holding only part of
// the shard set is rejected. mode and seed govern the simulated
// relaxed-ordering adversary; production use is Strict.
func OpenShardedTM(dir string, n int, waitFree bool, mode Mode, seed int64, part Partitioner, opts ...Option) (st *ShardedStore, existed bool, err error) {
	return shard.OpenFiles(dir, n, waitFree, pmem.Mode(mode), seed, part, opts...)
}

// RegisterShardedMetrics registers every shard engine of st in reg —
// counters, latency histograms and flight recorder each, under
// onefile_<engine>_shard<i> prefixes — and returns the per-shard handles.
func RegisterShardedMetrics(reg *MetricsRegistry, st *ShardedStore) []*EngineMetrics {
	if st.Shards() == 0 {
		return nil
	}
	return st.RegisterMetrics(reg, core.MetricsPrefix(st.Engine(0).Name()))
}
