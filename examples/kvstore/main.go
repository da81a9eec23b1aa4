// KVStore: a durable ordered key-value index on the lock-free persistent
// engine, built from the containers library.
//
// Keys and values are packed into one word (key<<24 | value) and kept in a
// red-black tree, giving ordered scans; a resizable hash set provides O(1)
// membership for the hot path. Both structures are updated in a single
// transaction, so they can never disagree — even across the crash in the
// middle of this demo.
//
//	go run ./examples/kvstore
//
// With -file the store lives in a real mmap-backed device file instead of
// the in-process emulation: state persists across runs (kill the process at
// any point — the next run recovers the image), and the file can be
// dissected offline with onefile-inspect -file:
//
//	go run ./examples/kvstore -file /tmp/kv.img
//	go run ./examples/kvstore -file /tmp/kv.img    # recovers the first run's data
//	go run ./cmd/onefile-inspect -file -heap 131072 /tmp/kv.img
//
// With -shards N the store is hash-partitioned over N independent engines:
// each key's index lives on its home shard (one serial commit stream per
// shard), and per-shard balance pots are moved between shards with atomic
// cross-shard transactions. Combined with -file, PATH names a directory
// holding one device image per shard, recovered — cross-shard transfers
// included — on the next run:
//
//	go run ./examples/kvstore -shards 4
//	go run ./examples/kvstore -shards 4 -file /tmp/kvshards
//
// The metrics service over a real workload is cmd/onefile-kv -metrics.
package main

import (
	"flag"
	"fmt"
	"log"

	"onefile"
	"onefile/containers"
)

var (
	filePath = flag.String("file", "",
		"back the store with an mmap device file at this path: state persists across runs, and killing the process mid-run leaves a crash image the next run recovers (with -shards, a directory of per-shard files)")
	numShards = flag.Int("shards", 1,
		"partition the store over this many engines (hash on key); > 1 runs the sharded demo with cross-shard transfers")
)

const valueBits = 24

func pack(key, val uint64) uint64 { return key<<valueBits | val }
func packedKey(p uint64) uint64   { return p >> valueBits }
func packedVal(p uint64) uint64   { return p & (1<<valueBits - 1) }

// store is a tiny durable KV index: tree for ordered scans, hash for fast
// membership, updated atomically together.
type store struct {
	e    onefile.Engine
	tree *containers.RBTree
	hash *containers.HashSet
}

func open(e onefile.Engine) *store {
	return &store{
		e:    e,
		tree: containers.NewRBTree(e, 0),
		hash: containers.NewHashSet(e, 1),
	}
}

// Put inserts or updates key → val in one transaction.
func (s *store) Put(key, val uint64) {
	s.e.Update(func(tx onefile.Tx) uint64 {
		// Drop any existing entry for the key (ordered scan is by packed
		// word, so equality needs the old value; membership tells us if
		// one exists).
		if s.hash.ContainsTx(tx, key) {
			// Find it by scanning the key's packed range via removal of
			// the known value stored alongside: we keep it in the hash
			// as key and in the tree as pack(key, oldVal). For the demo
			// we store the current value in a side array indexed by key.
			old := tx.Load(s.valueSlot(tx, key))
			s.tree.RemoveTx(tx, pack(key, old))
		} else {
			s.hash.AddTx(tx, key)
		}
		tx.Store(s.valueSlot(tx, key), val)
		s.tree.AddTx(tx, pack(key, val))
		return 0
	})
}

// valueSlot returns the heap word caching key's current value (a direct
// table reachable from root 2, allocated on demand).
func (s *store) valueSlot(tx onefile.Tx, key uint64) onefile.Ptr {
	const tableSize = 4096
	t := onefile.Ptr(tx.Load(onefile.Root(2)))
	if t == 0 {
		t = tx.Alloc(tableSize)
		tx.Store(onefile.Root(2), uint64(t))
	}
	return t + onefile.Ptr(key%tableSize)
}

// Get returns the value for key.
func (s *store) Get(key uint64) (uint64, bool) {
	var val uint64
	ok := s.e.Read(func(tx onefile.Tx) uint64 {
		if !s.hash.ContainsTx(tx, key) {
			return 0
		}
		val = tx.Load(s.valueSlot(tx, key))
		return 1
	}) == 1
	return val, ok
}

// TopK returns the k smallest (key, value) pairs in key order.
func (s *store) TopK(k int) [][2]uint64 {
	packed := s.tree.Keys(k)
	out := make([][2]uint64, len(packed))
	for i, p := range packed {
		out[i] = [2]uint64{packedKey(p), packedVal(p)}
	}
	return out
}

// shardedMain is the -shards N demo: a hash-partitioned store whose keys
// each live on their home shard's index, with a per-shard balance pot
// (root 3) moved between shards by atomic cross-shard transactions.
func shardedMain(n int) {
	opts := []onefile.Option{onefile.WithHeapWords(1 << 17)}
	var (
		st      *onefile.ShardedStore
		existed bool
		err     error
	)
	if *filePath != "" {
		st, existed, err = onefile.OpenShardedTM(*filePath, n, false, onefile.Strict, 7, nil, opts...)
		if err != nil {
			log.Fatal(err)
		}
		if existed {
			fmt.Printf("recovering %d-shard store from %s\n", n, *filePath)
		} else {
			fmt.Printf("created %d-shard store under %s\n", n, *filePath)
		}
	} else {
		if st, err = onefile.NewShardedTM(n, false, nil, opts...); err != nil {
			log.Fatal(err)
		}
	}
	defer st.Close()

	// One kv index per shard, each on its own engine; key k routes to
	// subs[st.ShardFor(k)].
	subs := make([]*store, n)
	for i := range subs {
		subs[i] = open(st.Engine(i))
	}
	pot := onefile.Root(3)

	if !existed {
		for i := uint64(1); i <= 500; i++ {
			subs[st.ShardFor(i)].Put(i, i*i%1000)
		}
		// Seed every shard's pot with 1000 on its own engine.
		for s := 0; s < n; s++ {
			st.UpdateOn(s, func(tx onefile.Tx) uint64 {
				tx.Store(pot, 1000)
				return 0
			})
		}
	}
	perShard := make([]int, n)
	for i := uint64(1); i <= 500; i++ {
		perShard[st.ShardFor(i)]++
		if v, ok := subs[st.ShardFor(i)].Get(i); !ok || v != i*i%1000 {
			log.Fatalf("key %d: Get = %d,%v", i, v, ok)
		}
	}
	fmt.Printf("500 keys hash-partitioned over %d shards: %v\n", n, perShard)

	// Atomic cross-shard transfers: move 250 around the ring of pots. A
	// crash at any point (kill -9 a -file run here) either leaves a
	// transfer fully applied or not at all — never half. UpdateCross
	// declares shards by key, so pick one representative key per shard.
	keyFor := shardKeys(st)
	for s := 0; s < n; s++ {
		d := (s + 1) % n
		if _, err := st.UpdateCross([]uint64{keyFor[s], keyFor[d]}, func(m onefile.MultiTx) uint64 {
			m.Store(s, pot, m.Load(s, pot)-250)
			m.Store(d, pot, m.Load(d, pot)+250)
			return 0
		}); err != nil {
			log.Fatal(err)
		}
	}
	total := uint64(0)
	for s := 0; s < n; s++ {
		v := st.ReadOn(s, func(tx onefile.Tx) uint64 { return tx.Load(pot) })
		fmt.Printf("  shard %d pot = %d\n", s, v)
		total += v
	}
	fmt.Printf("pots total %d — conserved across %d cross-shard transfers", total, st.CrossStats().Cross)
	if *filePath != "" {
		// Durable 2PC commits consume epoch tickets; recovery resumes the
		// counter past every epoch any shard recorded.
		fmt.Printf(" (epoch %d)", st.Epoch())
	}
	fmt.Println()
}

// shardKeys returns one representative key per shard (the smallest key
// hashing there) — the handles cross-shard transactions declare shards by.
func shardKeys(st *onefile.ShardedStore) []uint64 {
	out := make([]uint64, st.Shards())
	found := make([]bool, st.Shards())
	for k, left := uint64(0), st.Shards(); left > 0; k++ {
		if s := st.ShardFor(k); !found[s] {
			found[s], out[s] = true, k
			left--
		}
	}
	return out
}

func main() {
	flag.Parse()
	if *numShards > 1 {
		shardedMain(*numShards)
		return
	}
	var (
		nvm     *onefile.NVM
		existed bool
		err     error
	)
	if *filePath != "" {
		// Real durability: the heap lives in the file, Strict mode write-
		// backs reach the mapping immediately, and a previous run's image
		// (clean OR crashed) is recovered by attaching.
		nvm, existed, err = onefile.NewFileNVM(*filePath, onefile.Strict, 7, onefile.WithHeapWords(1<<17))
		if err != nil {
			log.Fatal(err)
		}
		defer nvm.Close()
		if existed {
			fmt.Printf("recovering store from %s\n", *filePath)
		} else {
			fmt.Printf("created store at %s\n", *filePath)
		}
	} else {
		nvm, err = onefile.NewNVM(onefile.Relaxed, 7, onefile.WithHeapWords(1<<17))
		if err != nil {
			log.Fatal(err)
		}
	}
	e, err := nvm.OpenLockFree(existed)
	if err != nil {
		log.Fatal(err)
	}
	kv := open(e)

	for i := uint64(1); i <= 500; i++ {
		kv.Put(i, i*i%1000)
	}
	kv.Put(42, 4242) // overwrite
	fmt.Println("before crash:")
	for _, p := range kv.TopK(5) {
		fmt.Printf("  key %d → %d\n", p[0], p[1])
	}

	nvm.Crash()
	e, err = nvm.OpenLockFree(true)
	if err != nil {
		log.Fatal(err)
	}
	kv = open(e) // attaches to the same roots

	fmt.Println("after crash + null recovery:")
	for _, p := range kv.TopK(5) {
		fmt.Printf("  key %d → %d\n", p[0], p[1])
	}
	if v, ok := kv.Get(42); !ok || v != 4242 {
		log.Fatalf("lost update: Get(42) = %d,%v", v, ok)
	}
	fmt.Println("Get(42) =", 4242, "- overwrite survived the crash")
	if err := kv.tree.CheckInvariants(); err != nil {
		log.Fatalf("recovered tree invalid: %v", err)
	}
	fmt.Println("red-black invariants hold on the recovered tree")
}
