package crashcheck

import (
	"fmt"
	"math/rand"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// sharded is the crash matrix's scenario over a partitioned multi-engine
// store (internal/shard): N devices, one per shard, all under crashAt's one
// event counter, so a simulated power failure hits the whole machine at one
// global persistence event — exactly the adversary the cross-shard two-phase
// commit must survive. After a crash the full device set is re-attached
// (running in-doubt resolution) and checked against a cross-shard
// sequential oracle: after a crash anywhere inside a 2PC — between
// prepares, after the decide, during the applies — the store must hold
// exactly the oracle state after k or k+1 whole workload transactions,
// never a torn transfer. Every shard's allocator audits clean (the 2PC
// staging blocks are ordinary allocations), and the recovered store must
// still commit a cross-shard transaction.
type sharded struct {
	engine string // OF-LF-PTM or OF-WF-PTM, on every shard
	*ShardedProgram
}

func (s sharded) name() string { return fmt.Sprintf("%s x%d", s.engine, s.Shards) }

func (s sharded) open(fac DeviceFactory, mode pmem.Mode, devSeed int64) ([]pmem.Device, func(func(int)) error, error) {
	st, devs, err := s.start(fac, mode, devSeed)
	if err != nil {
		return nil, nil, err
	}
	return devs, func(ack func(int)) error { return s.run(st, ack) }, nil
}

// start formats one device per shard (seeds devSeed+i, so RelaxedMode
// reorders independently per shard) and a fresh store over them.
func (s sharded) start(fac DeviceFactory, mode pmem.Mode, devSeed int64) (*shard.Store, []pmem.Device, error) {
	var devs []pmem.Device
	for i := 0; i < s.Shards; i++ {
		d, err := fac.newDevice(core.DeviceConfig(mode, devSeed+int64(i), engineOpts()...))
		if err != nil {
			closeAll(devs)
			return nil, nil, err
		}
		devs = append(devs, d)
	}
	st, err := s.store(devs, false)
	if err != nil {
		closeAll(devs)
		return nil, nil, err
	}
	return st, devs, nil
}

func (s sharded) store(devs []pmem.Device, attach bool) (*shard.Store, error) {
	return shard.NewPersistent(devs, s.engine == "OF-WF-PTM", attach, identityPart(s.Shards), engineOpts()...)
}

func (sharded) inflight(int) int { return 1 }

func (s sharded) attach(devs []pmem.Device) (recovered, error) {
	st, err := s.store(devs, true)
	if err != nil {
		return recovered{}, err
	}
	r := recovered{
		state: func() string { return readShardedState(st) },
		live: func() error {
			last := st.Shards() - 1
			if _, err := st.UpdateCross([]uint64{0, uint64(last)}, func(m tm.MultiTx) uint64 {
				m.Store(0, tm.Root(2), 0xBEEF)
				m.Store(last, tm.Root(2), 0xBEEF)
				return 0
			}); err != nil {
				return fmt.Errorf("post-recovery cross-shard update failed: %w", err)
			}
			v0 := st.ReadOn(0, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(2)) })
			vl := st.ReadOn(last, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(2)) })
			if v0 != 0xBEEF || vl != 0xBEEF {
				return fmt.Errorf("post-recovery cross-shard update lost: (%#x, %#x)", v0, vl)
			}
			return nil
		},
	}
	for i := 0; i < st.Shards(); i++ {
		r.engines = append(r.engines, st.Engine(i))
	}
	return r, nil
}

// shardInitialPot funds each shard's transfer balance so cross-shard
// debits never wrap.
const shardInitialPot = 1 << 16

// stxn is one transaction of the sharded canonical workload.
type stxn struct {
	setup int    // 1-based shard whose pot this transaction initialises; 0 = none
	cross bool   // cross-shard transfer a→b vs single-shard deposit on a
	a, b  int    // participating shards
	delta uint64 // amount moved or deposited
	gen   uint64 // unique stamp: makes every oracle prefix digest distinct
}

// ShardedProgram is the deterministic cross-shard workload plus the oracle
// digests after every prefix of it. Shard i's heap uses Root(0) for its
// transfer pot, Root(1) for the last generation stamp that touched it and
// Root(2) for the liveness probe.
type ShardedProgram struct {
	Seed   int64
	Shards int
	txns   []stxn
	states []string
}

// NewShardedProgram derives the workload from seed: one pot-initialising
// transaction per shard, then txns mixed transactions of which roughly 40%
// are two-shard transfers (every pair drawn uniformly) and the rest
// single-shard deposits. Needs at least two shards.
func NewShardedProgram(seed int64, shards, txns int) *ShardedProgram {
	if shards < 2 {
		panic(fmt.Sprintf("crashcheck: sharded program needs >=2 shards, got %d", shards))
	}
	rng := rand.New(rand.NewSource(seed))
	p := &ShardedProgram{Seed: seed, Shards: shards}
	for s := 1; s <= shards; s++ {
		p.txns = append(p.txns, stxn{setup: s})
	}
	for t := 1; t <= txns; t++ {
		x := stxn{gen: uint64(t), delta: uint64(rng.Intn(64) + 1)}
		x.a = rng.Intn(shards)
		if rng.Intn(5) < 2 {
			x.cross = true
			x.b = (x.a + 1 + rng.Intn(shards-1)) % shards
		}
		p.txns = append(p.txns, x)
	}

	pots := make([]uint64, shards)
	gens := make([]uint64, shards)
	p.states = append(p.states, digestShards(pots, gens))
	for _, x := range p.txns {
		applyShardTxn(pots, gens, x)
		p.states = append(p.states, digestShards(pots, gens))
	}
	return p
}

// Len returns the number of transactions in the program.
func (p *ShardedProgram) Len() int { return len(p.txns) }

// StateAfter returns the oracle digest after the first k transactions.
func (p *ShardedProgram) StateAfter(k int) string { return p.states[k] }

func applyShardTxn(pots, gens []uint64, x stxn) {
	switch {
	case x.setup > 0:
		pots[x.setup-1] = shardInitialPot
	case x.cross:
		pots[x.a] -= x.delta
		pots[x.b] += x.delta
		gens[x.a] = x.gen
		gens[x.b] = x.gen
	default:
		pots[x.a] += x.delta
		gens[x.a] = x.gen
	}
}

func digestShards(pots, gens []uint64) string {
	return fmt.Sprintf("pots=%v gens=%v", pots, gens)
}

// identityPart maps key k directly to shard k (bounds 1..n-1), so the
// workload addresses shards without hashing indirection.
func identityPart(n int) shard.Partitioner {
	bounds := make([]uint64, n-1)
	for i := range bounds {
		bounds[i] = uint64(i + 1)
	}
	return shard.NewRange(bounds)
}

// run executes the program on st, one store-level transaction per workload
// transaction, calling ack(1) after each one returns.
func (p *ShardedProgram) run(st *shard.Store, ack func(n int)) error {
	for _, tc := range p.txns {
		switch {
		case tc.setup > 0:
			st.UpdateOn(tc.setup-1, func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), shardInitialPot)
				return 0
			})
		case tc.cross:
			if _, err := st.UpdateCross([]uint64{uint64(tc.a), uint64(tc.b)}, func(m tm.MultiTx) uint64 {
				m.Store(tc.a, tm.Root(0), m.Load(tc.a, tm.Root(0))-tc.delta)
				m.Store(tc.b, tm.Root(0), m.Load(tc.b, tm.Root(0))+tc.delta)
				m.Store(tc.a, tm.Root(1), tc.gen)
				m.Store(tc.b, tm.Root(1), tc.gen)
				return 0
			}); err != nil {
				return fmt.Errorf("cross-shard txn %d: %w", tc.gen, err)
			}
		default:
			st.UpdateOn(tc.a, func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), tx.Load(tm.Root(0))+tc.delta)
				tx.Store(tm.Root(1), tc.gen)
				return 0
			})
		}
		ack(1)
	}
	return nil
}

// readShardedState reads the recovered store's logical state back into an
// oracle digest.
func readShardedState(st *shard.Store) string {
	pots := make([]uint64, st.Shards())
	gens := make([]uint64, st.Shards())
	for s := 0; s < st.Shards(); s++ {
		pots[s] = st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
		gens[s] = st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
	}
	return digestShards(pots, gens)
}
