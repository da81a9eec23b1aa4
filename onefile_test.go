package onefile_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"onefile"
	"onefile/containers"
)

func small() []onefile.Option {
	return []onefile.Option{
		onefile.WithHeapWords(1 << 15),
		onefile.WithMaxThreads(16),
		onefile.WithMaxStores(1 << 10),
	}
}

func TestPublicVolatileEngines(t *testing.T) {
	for _, e := range []onefile.Engine{
		onefile.NewLockFree(small()...),
		onefile.NewWaitFree(small()...),
	} {
		t.Run(e.Name(), func(t *testing.T) {
			cnt := onefile.Root(0)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						e.Update(func(tx onefile.Tx) uint64 {
							tx.Store(cnt, tx.Load(cnt)+1)
							return 0
						})
					}
				}()
			}
			wg.Wait()
			if got := e.Read(func(tx onefile.Tx) uint64 { return tx.Load(cnt) }); got != 400 {
				t.Fatalf("counter = %d", got)
			}
		})
	}
}

func TestPublicPTMCrashCycle(t *testing.T) {
	nvm, err := onefile.NewNVM(onefile.Relaxed, 42, small()...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := nvm.OpenWaitFree(false)
	if err != nil {
		t.Fatal(err)
	}
	set := containers.NewHashSet(e, 0)
	for i := uint64(0); i < 100; i++ {
		set.Add(i)
	}
	nvm.Crash()
	r, err := nvm.OpenWaitFree(true)
	if err != nil {
		t.Fatal(err)
	}
	set2 := containers.NewHashSet(r, 0)
	if set2.Len() != 100 {
		t.Fatalf("recovered set has %d keys", set2.Len())
	}
	if pwb, _ := nvm.PersistStats(); pwb == 0 {
		t.Fatal("no pwbs recorded")
	}
}

// TestReopenFormatsOverAHeap: OpenLockFree(false) on an NVM that held an
// engine starts an empty heap, and only the new engine's updates survive a
// crash.
func TestReopenFormatsOverAHeap(t *testing.T) {
	nvm, err := onefile.NewNVM(onefile.Strict, 1, small()...)
	if err != nil {
		t.Fatal(err)
	}
	old, err := nvm.OpenLockFree(false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		old.Update(func(tx onefile.Tx) uint64 { tx.Store(onefile.Root(0), min(i, 7)); return 0 })
	}
	old.Close()
	e, err := nvm.OpenLockFree(false)
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx onefile.Tx) uint64 { tx.Store(onefile.Root(0), 99); return 0 })
	nvm.Crash()
	r, err := nvm.OpenLockFree(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Read(func(tx onefile.Tx) uint64 { return tx.Load(onefile.Root(0)) }); got != 99 {
		t.Fatalf("root 0 = %d after reformat, update to 99 and crash, want 99", got)
	}
}

func Example() {
	e := onefile.NewWaitFree()
	balance := onefile.Root(0)
	e.Update(func(tx onefile.Tx) uint64 {
		tx.Store(balance, 100)
		return 0
	})
	got := e.Read(func(tx onefile.Tx) uint64 { return tx.Load(balance) })
	fmt.Println(got)
	// Output: 100
}

func TestFileNVMReopenCycle(t *testing.T) {
	// Build a heap on a real device file, Close it, reopen in a "new
	// process" (a second NVM on the same path), and verify the data came
	// back through the file — no snapshot choreography involved.
	path := filepath.Join(t.TempDir(), "heap.img")
	nvm, existed, err := onefile.NewFileNVM(path, onefile.Strict, 1, small()...)
	if err != nil {
		t.Skipf("file-backed NVM unavailable: %v", err)
	}
	if existed {
		t.Fatal("fresh path reported an existing device")
	}
	e, err := nvm.OpenLockFree(false)
	if err != nil {
		t.Fatal(err)
	}
	q := containers.NewQueue(e, 0)
	for i := uint64(1); i <= 25; i++ {
		q.Enqueue(i)
	}
	if err := nvm.Close(); err != nil {
		t.Fatal(err)
	}

	nvm2, existed, err := onefile.NewFileNVM(path, onefile.Strict, 1, small()...)
	if err != nil {
		t.Fatal(err)
	}
	if !existed {
		t.Fatal("existing device file not recognised")
	}
	e2, err := nvm2.OpenLockFree(existed)
	if err != nil {
		t.Fatal(err)
	}
	q2 := containers.NewQueue(e2, 0)
	if q2.Len() != 25 {
		t.Fatalf("recovered queue length = %d", q2.Len())
	}
	if v, ok := q2.Dequeue(); !ok || v != 1 {
		t.Fatalf("recovered head = %d,%v", v, ok)
	}
	if err := nvm2.Close(); err != nil {
		t.Fatal(err)
	}

	// Mismatched sizing options must be rejected, not misread.
	if _, _, err := onefile.NewFileNVM(path, onefile.Strict, 1,
		onefile.WithHeapWords(1<<16), onefile.WithMaxThreads(16), onefile.WithMaxStores(1<<10)); err == nil {
		t.Fatal("reopen with mismatched options succeeded")
	}
}

func TestSnapshotAcrossProcessRestart(t *testing.T) {
	// Build a heap, snapshot it, restore it into a brand-new NVM (as a
	// fresh process would), and verify the data and further updates.
	nvm, err := onefile.NewNVM(onefile.Strict, 1, small()...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := nvm.OpenLockFree(false)
	if err != nil {
		t.Fatal(err)
	}
	q := containers.NewQueue(e, 0)
	for i := uint64(1); i <= 25; i++ {
		q.Enqueue(i)
	}
	var file bytes.Buffer
	if err := nvm.SaveSnapshot(&file); err != nil {
		t.Fatal(err)
	}

	nvm2, err := onefile.NewNVM(onefile.Strict, 2, small()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := nvm2.LoadSnapshot(&file); err != nil {
		t.Fatal(err)
	}
	e2, err := nvm2.OpenLockFree(true)
	if err != nil {
		t.Fatal(err)
	}
	q2 := containers.NewQueue(e2, 0)
	if q2.Len() != 25 {
		t.Fatalf("restored queue length = %d", q2.Len())
	}
	if v, ok := q2.Dequeue(); !ok || v != 1 {
		t.Fatalf("restored head = %d,%v", v, ok)
	}
	q2.Enqueue(99)
	if q2.Len() != 25 {
		t.Fatalf("restored engine not writable: len=%d", q2.Len())
	}
}

func TestPublicShardedVolatile(t *testing.T) {
	st, err := onefile.NewShardedTM(4, false, nil, small()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Shards() != 4 {
		t.Fatalf("Shards() = %d", st.Shards())
	}
	// Single-shard routing: per-key counters on the key's home engine.
	bal := onefile.Root(0)
	keys := []uint64{3, 1000, 77777, 1 << 40}
	for _, k := range keys {
		st.Update(k, func(tx onefile.Tx) uint64 {
			tx.Store(bal, tx.Load(bal)+100)
			return 0
		})
	}
	// Cross-shard: move 40 between two keys on (very likely) different
	// shards, atomically.
	a, b := keys[0], keys[3]
	sa, sb := st.ShardFor(a), st.ShardFor(b)
	if sa == sb {
		t.Skipf("hash placed probe keys on one shard (%d)", sa)
	}
	res, err := st.UpdateCross([]uint64{a, b}, func(m onefile.MultiTx) uint64 {
		m.Store(sa, bal, m.Load(sa, bal)-40)
		m.Store(sb, bal, m.Load(sb, bal)+40)
		return m.Load(sb, bal)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != 140 {
		t.Fatalf("cross result = %d, want 140", res)
	}
	if got := st.Read(a, func(tx onefile.Tx) uint64 { return tx.Load(bal) }); got != 60 {
		t.Fatalf("source balance = %d, want 60", got)
	}
	if cs := st.CrossStats(); cs.Cross != 1 {
		t.Fatalf("CrossStats.Cross = %d, want 1", cs.Cross)
	}
	var _ onefile.Sharded = st // the concrete store satisfies the interface
}

func TestPublicShardedFilesReopen(t *testing.T) {
	dir := t.TempDir()
	part := onefile.RangePartitioner(1000)
	st, existed, err := onefile.OpenShardedTM(dir, 2, false, onefile.Strict, 1, part, small()...)
	if err != nil {
		t.Skipf("file-backed sharded store unavailable: %v", err)
	}
	if existed {
		t.Fatal("fresh dir reported an existing store")
	}
	pot := onefile.Root(0)
	if _, err := st.UpdateCross([]uint64{5, 2000}, func(m onefile.MultiTx) uint64 {
		m.Store(0, pot, 70)
		m.Store(1, pot, 30)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, existed, err := onefile.OpenShardedTM(dir, 2, false, onefile.Strict, 1, part, small()...)
	if err != nil {
		t.Fatal(err)
	}
	if !existed {
		t.Fatal("existing store not recognised")
	}
	defer st2.Close()
	sum := st2.Read(5, func(tx onefile.Tx) uint64 { return tx.Load(pot) }) +
		st2.Read(2000, func(tx onefile.Tx) uint64 { return tx.Load(pot) })
	if sum != 100 {
		t.Fatalf("recovered pots sum to %d, want 100", sum)
	}
}

func TestPublicShardedMetrics(t *testing.T) {
	st, err := onefile.NewShardedTM(2, false, onefile.HashPartitioner(2), small()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := onefile.NewMetricsRegistry()
	if ms := onefile.RegisterShardedMetrics(reg, st); len(ms) != 2 {
		t.Fatalf("registered %d shard metric handles, want 2", len(ms))
	}
	st.Update(1, func(tx onefile.Tx) uint64 {
		tx.Store(onefile.Root(0), 1)
		return 0
	})
}
