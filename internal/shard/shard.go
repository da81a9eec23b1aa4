// Package shard implements a partitioned transactional store: N
// independent OneFile engines — each with its own curTx, device, combiner
// and contention manager — behind one keyed interface.
//
// OneFile's throughput ceiling is structural: one curTx word means one
// serial stream of committed transactions no matter how many cores help
// (PAPER.md §III). Partitioning multiplies the streams. A key's home shard
// is fixed by a Partitioner (hash or range); single-shard transactions —
// the overwhelming common case — route to their home engine and run
// today's path completely untouched, so N shards commit N disjoint
// working sets on N concurrent streams with no coordination whatsoever.
//
// Cross-shard transactions commit via a two-phase protocol layered on the
// engines' exclusivity gates (internal/core/exclusive.go), with all 2PC
// state kept in reserved heap roots of the participating shards so that
// it rides the engines' existing persistence and null-recovery machinery:
//
//  1. Quiesce. The store closes the gate of every participant in shard
//     index order (deadlock-free) and drains in-flight transactions. The
//     participants are now private to this transaction: reads see
//     committed state, and nothing can interleave between the per-shard
//     commits below.
//  2. Execute. The body runs once against buffered per-shard write sets
//     (reads are read-your-writes, then direct committed-state loads).
//  3. Prepare. Every writer except the coordinator (the lowest-numbered
//     writer) persists its redo entries into a staging block plus a
//     prepare record — {epoch, coordinator, count} in reserved roots —
//     as ONE ordinary engine transaction. No user data changes yet.
//  4. Decide. The coordinator applies its own writes and stamps the
//     epoch into its decide root in ONE engine transaction. That
//     transaction's commit (a single curTx advance made durable by the
//     engine's usual protocol) is the atomic global commit point.
//  5. Apply. Each prepared participant replays its writes and clears its
//     prepare record in ONE engine transaction, then the gates reopen.
//
// Recovery (after the engines' own null recovery) resolves in-doubt
// shards deterministically: a shard prepared at epoch E committed iff its
// coordinator's decide root holds exactly E — then its staged redo is
// replayed — and aborted otherwise — then the prepare record is simply
// cleared, no user word having been touched. Both resolutions are single
// idempotent engine transactions, so crashes during recovery re-resolve
// cleanly. Epochs come from a store-wide counter resumed past every
// epoch recorded on any shard, and are never reused.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// The cross-shard commit metadata lives in the top reserved roots of each
// shard's heap; user code on a sharded store may use roots [0, UserRoots).
const (
	// rootDecide holds, on a shard that acted as coordinator, the highest
	// epoch it decided (committed). Monotonic, never cleared: it is the
	// commit record in-doubt participants consult.
	rootDecide = tm.NumRoots - 1
	// rootEpoch holds a participant's prepared epoch, 0 when no prepare
	// is in flight. Non-zero after a crash means in-doubt.
	rootEpoch = tm.NumRoots - 2
	// rootCoord holds the prepared transaction's coordinator shard index.
	rootCoord = tm.NumRoots - 3
	// rootCount holds the number of staged redo entries.
	rootCount = tm.NumRoots - 4
	// rootBuf points to the staging block: [capacity, (addr,val)...].
	rootBuf = tm.NumRoots - 5

	// UserRoots is the number of root slots available to users of a
	// sharded store (per shard).
	UserRoots = tm.NumRoots - 5

	// metaStores bounds the bookkeeping stores a prepare transaction adds
	// on top of its 2·n redo entries (prepare record, staging-block
	// allocation and allocator metadata).
	metaStores = 32
)

// CrossStats counts the sharded store's own activity, beyond the per-shard
// engine counters.
type CrossStats struct {
	Cross          uint64 // UpdateCross calls that committed
	CrossSingle    uint64 // UpdateCross calls that collapsed to one shard
	CrossReadOnly  uint64 // UpdateCross calls with no writes
	Cross2PC       uint64 // cross commits that ran the full prepare/decide/apply
	RecoveredHalf  uint64 // in-doubt shards resolved to commit at recovery
	RecoveredAbort uint64 // in-doubt shards resolved to abort at recovery
}

// Store is a partitioned multi-engine transactional store. Create one with
// NewVolatile, NewPersistent or OpenFiles. All methods are safe for
// concurrent use.
type Store struct {
	engines []*core.Engine
	part    Partitioner
	persist bool
	devs    []pmem.Device // owned devices (OpenFiles); nil when caller-owned

	epoch atomic.Uint64 // cross-shard epoch ticket; never reused

	cross         atomic.Uint64
	crossSingle   atomic.Uint64
	crossReadOnly atomic.Uint64
	cross2pc      atomic.Uint64

	recoveredHalf  uint64 // written single-threaded at attach
	recoveredAbort uint64
}

var _ tm.Sharded = (*Store)(nil)

// validate checks the shard count / partitioner pairing.
func validate(n int, part Partitioner) (Partitioner, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: store needs a positive shard count, got %d", n)
	}
	if part == nil {
		part = NewHash(n)
	}
	if part.Shards() != n {
		return nil, fmt.Errorf("shard: partitioner built for %d shards, store has %d", part.Shards(), n)
	}
	return part, nil
}

// NewVolatile creates a sharded store over n volatile OneFile engines
// (wait-free or lock-free). part nil defaults to hash partitioning.
func NewVolatile(n int, waitFree bool, part Partitioner, opts ...tm.Option) (*Store, error) {
	part, err := validate(n, part)
	if err != nil {
		return nil, err
	}
	st := &Store{part: part}
	for i := 0; i < n; i++ {
		if waitFree {
			st.engines = append(st.engines, core.NewWF(opts...))
		} else {
			st.engines = append(st.engines, core.NewLF(opts...))
		}
	}
	return st, nil
}

// NewPersistent creates (attach=false) or recovers (attach=true) a sharded
// store over one persistent OneFile engine per device. Each device is one
// shard's private persistence domain; cross-shard recovery needs all of
// them (an in-doubt participant consults its coordinator's device).
// Devices must be listed in shard order — the order is part of the layout.
func NewPersistent(devs []pmem.Device, waitFree, attach bool, part Partitioner, opts ...tm.Option) (*Store, error) {
	part, err := validate(len(devs), part)
	if err != nil {
		return nil, err
	}
	st := &Store{part: part, persist: true}
	for _, dev := range devs {
		var (
			e   *core.Engine
			err error
		)
		if waitFree {
			e, err = core.NewPersistentWF(dev, attach, opts...)
		} else {
			e, err = core.NewPersistentLF(dev, attach, opts...)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", len(st.engines), err)
		}
		st.engines = append(st.engines, e)
	}
	if attach {
		if err := st.resolveInDoubt(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Shards implements tm.Sharded.
func (st *Store) Shards() int { return len(st.engines) }

// ShardFor implements tm.Sharded.
func (st *Store) ShardFor(key uint64) int { return st.part.Shard(key) }

// Engine returns shard i's engine, for direct use of engine-level APIs
// (combined submission, metrics, stats) on a single shard.
func (st *Store) Engine(i int) *core.Engine { return st.engines[i] }

// Update implements tm.Sharded: fn runs as an ordinary update transaction
// on key's home engine — the unchanged single-shard fast path.
func (st *Store) Update(key uint64, fn func(tm.Tx) uint64) uint64 {
	return st.engines[st.part.Shard(key)].Update(fn)
}

// Read implements tm.Sharded: a read-only transaction on key's home shard.
func (st *Store) Read(key uint64, fn func(tm.Tx) uint64) uint64 {
	return st.engines[st.part.Shard(key)].Read(fn)
}

// UpdateOn runs fn as an update transaction on an explicit shard.
func (st *Store) UpdateOn(shard int, fn func(tm.Tx) uint64) uint64 {
	return st.engines[shard].Update(fn)
}

// ReadOn runs fn as a read-only transaction on an explicit shard.
func (st *Store) ReadOn(shard int, fn func(tm.Tx) uint64) uint64 {
	return st.engines[shard].Read(fn)
}

// Stats implements tm.Sharded: the shard engines' counters summed.
func (st *Store) Stats() tm.Stats {
	var s tm.Stats
	for _, e := range st.engines {
		s = s.Add(e.Stats())
	}
	return s
}

// Epoch returns the current cross-shard epoch ticket: the number of
// two-phase commits started over the store's lifetime (recovery resumes it
// past every epoch recorded on any shard).
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// CrossStats returns the store-level cross-shard counters.
func (st *Store) CrossStats() CrossStats {
	return CrossStats{
		Cross:          st.cross.Load(),
		CrossSingle:    st.crossSingle.Load(),
		CrossReadOnly:  st.crossReadOnly.Load(),
		Cross2PC:       st.cross2pc.Load(),
		RecoveredHalf:  st.recoveredHalf,
		RecoveredAbort: st.recoveredAbort,
	}
}

// Close implements tm.Sharded: closes every shard engine, then any
// devices the store opened itself (OpenFiles).
func (st *Store) Close() error {
	var err error
	for _, e := range st.engines {
		err = errors.Join(err, e.Close())
	}
	for _, d := range st.devs {
		err = errors.Join(err, d.Close())
	}
	return err
}

// RegisterMetrics registers every shard engine in reg under
// "<prefix>_shard<i>" plus store-level cross-shard counters under
// "<prefix>_cross". Returns the per-shard metric bundles.
func (st *Store) RegisterMetrics(reg *obs.Registry, prefix string) []*core.EngineObs {
	if reg == nil {
		return nil
	}
	out := make([]*core.EngineObs, len(st.engines))
	for i, e := range st.engines {
		out[i] = e.RegisterMetrics(reg, fmt.Sprintf("%s_shard%d", prefix, i))
	}
	reg.CounterFunc(prefix+"_cross_commits", "committed cross-shard transactions",
		func() float64 { return float64(st.cross.Load()) })
	reg.CounterFunc(prefix+"_cross_single", "cross-shard calls collapsed to one shard",
		func() float64 { return float64(st.crossSingle.Load()) })
	reg.CounterFunc(prefix+"_cross_two_phase", "cross-shard commits that ran the full 2PC",
		func() float64 { return float64(st.cross2pc.Load()) })
	reg.GaugeFunc(prefix+"_cross_epoch", "current cross-shard epoch ticket",
		func() float64 { return float64(st.epoch.Load()) })
	return out
}

// shardSet maps keys to their home shards: sorted, deduplicated.
func (st *Store) shardSet(keys []uint64) []int {
	set := make([]int, 0, len(keys))
	for _, k := range keys {
		set = append(set, st.part.Shard(k))
	}
	sort.Ints(set)
	n := 0
	for i, s := range set {
		if i == 0 || s != set[n-1] {
			set[n] = s
			n++
		}
	}
	return set[:n]
}

// UpdateCross implements tm.Sharded: fn runs as one transaction over the
// home shards of keys, committing atomically across all of them. The body
// may only access declared shards (panic: tm.ErrShardNotDeclared) and
// cannot Alloc/Free. A body panic propagates after the shards reopen, with
// nothing written. Errors: tm.ErrNoKeys for an empty key set,
// tm.ErrTooManyStores when one shard's write set exceeds what a prepare
// transaction can stage.
func (st *Store) UpdateCross(keys []uint64, fn func(tm.MultiTx) uint64) (uint64, error) {
	if len(keys) == 0 {
		return 0, tm.ErrNoKeys
	}
	shards := st.shardSet(keys)
	if len(shards) == 1 {
		return st.crossOnSingle(shards[0], fn), nil
	}

	// Quiesce every participant, in index order. From here to the
	// deferred reopen the participants are private to this transaction.
	began := 0
	defer func() {
		for i := began - 1; i >= 0; i-- {
			st.engines[shards[i]].EndExclusive()
		}
	}()
	for _, s := range shards {
		st.engines[s].BeginExclusive()
		began++
	}

	m := newMultiTx(st, shards)
	res := fn(m)

	writers := m.writers()
	switch len(writers) {
	case 0:
		st.crossReadOnly.Add(1)
		return res, nil
	case 1:
		// One engine transaction is atomic on its own; no 2PC needed.
		w := writers[0]
		st.engines[w].UpdateExclusive(func(tx tm.Tx) uint64 {
			m.applyTo(tx, w)
			return 0
		})
		st.cross.Add(1)
		return res, nil
	}

	// Capacity check before anything durable happens: each participant's
	// prepare stages 2·n entry words plus bounded bookkeeping in one
	// engine transaction.
	for _, w := range writers {
		if n := len(m.bufs[w].addrs); 2*n+metaStores > st.engines[w].MaxStores() {
			return 0, fmt.Errorf("shard %d: staging %d cross-shard stores: %w", w, n, tm.ErrTooManyStores)
		}
	}

	if !st.persist {
		// Volatile store: no crash to recover from, and the gates hold
		// until every apply lands, so per-shard applies are already
		// atomic to every observer. Skip the staging round-trip.
		for _, w := range writers {
			st.engines[w].UpdateExclusive(func(tx tm.Tx) uint64 {
				m.applyTo(tx, w)
				return 0
			})
		}
		st.cross.Add(1)
		return res, nil
	}

	epoch := st.epoch.Add(1)
	coord := writers[0]

	// Prepare: every non-coordinator stages its redo and prepare record.
	for _, w := range writers[1:] {
		st.prepare(w, coord, epoch, m.bufs[w])
	}
	// Decide: the coordinator's commit is the global commit point.
	st.engines[coord].UpdateExclusive(func(tx tm.Tx) uint64 {
		m.applyTo(tx, coord)
		tx.Store(tm.Root(rootDecide), epoch)
		return 0
	})
	// Apply: replay and clear each prepared participant.
	for _, w := range writers[1:] {
		st.engines[w].UpdateExclusive(func(tx tm.Tx) uint64 {
			m.applyTo(tx, w)
			tx.Store(tm.Root(rootEpoch), 0)
			return 0
		})
	}
	st.cross.Add(1)
	st.cross2pc.Add(1)
	return res, nil
}

// crossOnSingle runs a cross-shard body whose keys all live on one shard
// as a plain transaction there — the fast path that keeps mostly-local
// workloads on today's commit pipeline.
func (st *Store) crossOnSingle(shard int, fn func(tm.MultiTx) uint64) uint64 {
	st.crossSingle.Add(1)
	return st.engines[shard].Update(func(tx tm.Tx) uint64 {
		// One handle per execution: on a wait-free engine helpers run this
		// body concurrently, each against its own tx.
		return fn(&singleMTx{shard: shard, tx: tx})
	})
}

// prepare persists w's staged redo and prepare record in one engine
// transaction: on recovery either the whole stage exists or none of it.
func (st *Store) prepare(w, coord int, epoch uint64, buf *writeBuf) {
	st.engines[w].UpdateExclusive(func(tx tm.Tx) uint64 {
		n := len(buf.addrs)
		blk := ensureStaging(tx, n)
		for i := 0; i < n; i++ {
			tx.Store(blk+tm.Ptr(1+2*i), buf.addrs[i])
			tx.Store(blk+tm.Ptr(2+2*i), buf.vals[i])
		}
		tx.Store(tm.Root(rootCount), uint64(n))
		tx.Store(tm.Root(rootCoord), uint64(coord))
		tx.Store(tm.Root(rootEpoch), epoch)
		return 0
	})
}

// ensureStaging returns the shard's staging block, growing it if need
// entries do not fit. Layout: [capacity, addr0, val0, addr1, val1, ...].
func ensureStaging(tx tm.Tx, need int) tm.Ptr {
	blk := tm.Ptr(tx.Load(tm.Root(rootBuf)))
	if blk != 0 && int(tx.Load(blk)) >= need {
		return blk
	}
	capWords := 64
	for capWords < need {
		capWords *= 2
	}
	nblk := tx.Alloc(1 + 2*capWords)
	tx.Store(nblk, uint64(capWords))
	tx.Store(tm.Root(rootBuf), uint64(nblk))
	if blk != 0 {
		tx.Free(blk)
	}
	return nblk
}

// resolveInDoubt resolves every in-doubt shard after a crash (the engines'
// own null recovery has already run in the constructors) and resumes the
// epoch counter past every epoch any shard has seen.
func (st *Store) resolveInDoubt() error {
	maxEpoch := uint64(0)
	for i, e := range st.engines {
		var prepared, decided uint64
		e.Read(func(tx tm.Tx) uint64 {
			prepared = tx.Load(tm.Root(rootEpoch))
			decided = tx.Load(tm.Root(rootDecide))
			return 0
		})
		maxEpoch = max(maxEpoch, prepared, decided)
		if prepared == 0 {
			continue
		}
		coord := st.engines[i].Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(rootCoord)) })
		if coord >= uint64(len(st.engines)) || int(coord) == i {
			return fmt.Errorf("shard %d: prepared at epoch %d with invalid coordinator %d", i, prepared, coord)
		}
		committed := st.engines[coord].Read(func(tx tm.Tx) uint64 {
			return tx.Load(tm.Root(rootDecide))
		}) == prepared
		// Both resolutions are one idempotent engine transaction: a crash
		// mid-resolution leaves the shard in-doubt and re-resolvable.
		e.Update(func(tx tm.Tx) uint64 {
			if committed {
				replayStaged(tx, e.HeapWords())
			}
			tx.Store(tm.Root(rootEpoch), 0)
			return 0
		})
		if committed {
			st.recoveredHalf++
		} else {
			st.recoveredAbort++
		}
	}
	st.epoch.Store(maxEpoch)
	return nil
}

// replayStaged applies the staged redo entries inside the resolving
// transaction. Entries outside the heap are skipped defensively, mirroring
// the engines' apply path: a valid image never stages them.
func replayStaged(tx tm.Tx, heapWords int) {
	blk := tm.Ptr(tx.Load(tm.Root(rootBuf)))
	n := tx.Load(tm.Root(rootCount))
	if blk == 0 {
		return
	}
	if capWords := tx.Load(blk); n > capWords {
		n = capWords
	}
	for i := uint64(0); i < n; i++ {
		addr := tx.Load(blk + tm.Ptr(1+2*i))
		val := tx.Load(blk + tm.Ptr(2+2*i))
		if addr == 0 || addr >= uint64(heapWords) {
			continue
		}
		tx.Store(tm.Ptr(addr), val)
	}
}

// --- transaction handles ---

// writeBuf is one shard's buffered cross-shard write set: insertion-order
// entries with last-write-wins replacement.
type writeBuf struct {
	addrs []uint64
	vals  []uint64
	index map[uint64]int
}

func (b *writeBuf) put(addr, val uint64) {
	if i, ok := b.index[addr]; ok {
		b.vals[i] = val
		return
	}
	if b.index == nil {
		b.index = make(map[uint64]int)
	}
	b.index[addr] = len(b.addrs)
	b.addrs = append(b.addrs, addr)
	b.vals = append(b.vals, val)
}

// multiTx implements tm.MultiTx over quiesced shards: loads read the
// buffered writes first, then the committed state directly; stores buffer.
type multiTx struct {
	st       *Store
	declared []bool
	shards   []int
	bufs     []*writeBuf
}

var _ tm.MultiTx = (*multiTx)(nil)

func newMultiTx(st *Store, shards []int) *multiTx {
	m := &multiTx{
		st:       st,
		declared: make([]bool, len(st.engines)),
		shards:   shards,
		bufs:     make([]*writeBuf, len(st.engines)),
	}
	for _, s := range shards {
		m.declared[s] = true
		m.bufs[s] = &writeBuf{}
	}
	return m
}

func (m *multiTx) check(shard int) {
	if shard < 0 || shard >= len(m.declared) || !m.declared[shard] {
		panic(tm.ErrShardNotDeclared)
	}
}

// Load implements tm.MultiTx.
func (m *multiTx) Load(shard int, p tm.Ptr) uint64 {
	m.check(shard)
	if b := m.bufs[shard]; b.index != nil {
		if i, ok := b.index[uint64(p)]; ok {
			return b.vals[i]
		}
	}
	return m.st.engines[shard].LoadDirect(p)
}

// Store implements tm.MultiTx.
func (m *multiTx) Store(shard int, p tm.Ptr, v uint64) {
	m.check(shard)
	if p == 0 || int(p) >= m.st.engines[shard].HeapWords() {
		panic(fmt.Errorf("shard: heap pointer %d out of range on shard %d", p, shard))
	}
	m.bufs[shard].put(uint64(p), v)
}

// writers returns the declared shards with buffered writes, ascending.
func (m *multiTx) writers() []int {
	out := make([]int, 0, len(m.shards))
	for _, s := range m.shards {
		if len(m.bufs[s].addrs) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// applyTo stores one shard's buffered writes into a live transaction.
func (m *multiTx) applyTo(tx tm.Tx, shard int) {
	b := m.bufs[shard]
	for i, addr := range b.addrs {
		tx.Store(tm.Ptr(addr), b.vals[i])
	}
}

// singleMTx adapts a live single-shard Tx to the MultiTx interface for
// cross-shard calls that collapsed to one home shard.
type singleMTx struct {
	shard int
	tx    tm.Tx
}

var _ tm.MultiTx = (*singleMTx)(nil)

func (m *singleMTx) Load(shard int, p tm.Ptr) uint64 {
	if shard != m.shard {
		panic(tm.ErrShardNotDeclared)
	}
	return m.tx.Load(p)
}

func (m *singleMTx) Store(shard int, p tm.Ptr, v uint64) {
	if shard != m.shard {
		panic(tm.ErrShardNotDeclared)
	}
	m.tx.Store(p, v)
}
