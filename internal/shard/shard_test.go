package shard

import (
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

func testOpts() []tm.Option {
	return []tm.Option{tm.WithHeapWords(1 << 12), tm.WithMaxThreads(8)}
}

// twoShardRange puts keys < 1000 on shard 0 and the rest on shard 1.
func twoShardRange() Partitioner { return NewRange([]uint64{1000}) }

func newSimDevs(t *testing.T, n int, opts ...tm.Option) []pmem.Device {
	t.Helper()
	devs := make([]pmem.Device, n)
	for i := range devs {
		d, err := pmem.New(core.DeviceConfig(pmem.StrictMode, int64(i+1), opts...))
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	return devs
}

// TestCrossShardBasics: a two-shard transaction sees committed state on
// both shards, reads its own writes, and commits atomically.
func TestCrossShardBasics(t *testing.T) {
	st, err := NewVolatile(2, false, twoShardRange(), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	st.Update(1, func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 10); return 0 })
	st.Update(2000, func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 20); return 0 })

	res, err := st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
		a := m.Load(0, tm.Root(0))
		b := m.Load(1, tm.Root(0))
		m.Store(0, tm.Root(0), a+1)
		m.Store(1, tm.Root(0), b+1)
		if got := m.Load(0, tm.Root(0)); got != a+1 {
			t.Errorf("read-your-writes: got %d, want %d", got, a+1)
		}
		return a + b
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != 30 {
		t.Fatalf("UpdateCross result = %d, want 30", res)
	}
	if got := st.Read(1, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != 11 {
		t.Fatalf("shard 0 counter = %d, want 11", got)
	}
	if got := st.Read(2000, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != 21 {
		t.Fatalf("shard 1 counter = %d, want 21", got)
	}
	cs := st.CrossStats()
	if cs.Cross != 1 {
		t.Fatalf("CrossStats.Cross = %d, want 1", cs.Cross)
	}
}

// TestCrossSingleCollapse: keys on one home shard run as a plain
// transaction there, and undeclared shards stay off limits.
func TestCrossSingleCollapse(t *testing.T) {
	st, err := NewVolatile(2, false, twoShardRange(), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := st.UpdateCross([]uint64{1, 2, 3}, func(m tm.MultiTx) uint64 {
		m.Store(0, tm.Root(1), 5)
		return m.Load(0, tm.Root(1))
	})
	if err != nil || res != 5 {
		t.Fatalf("collapsed cross = (%d, %v), want (5, nil)", res, err)
	}
	if cs := st.CrossStats(); cs.CrossSingle != 1 || cs.Cross2PC != 0 {
		t.Fatalf("CrossStats = %+v, want CrossSingle=1 Cross2PC=0", cs)
	}

	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), tm.ErrShardNotDeclared) {
				t.Errorf("undeclared access recovered %v, want ErrShardNotDeclared", r)
			}
		}()
		st.UpdateCross([]uint64{1}, func(m tm.MultiTx) uint64 {
			return m.Load(1, tm.Root(0)) // shard 1 owns no declared key
		})
		t.Error("undeclared access did not panic")
	}()
	func() {
		defer func() {
			if r := recover(); !errors.Is(r.(error), tm.ErrShardNotDeclared) {
				t.Errorf("undeclared access recovered %v, want ErrShardNotDeclared", r)
			}
		}()
		st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
			return m.Load(2, tm.Root(0)) // no such shard
		})
		t.Error("out-of-range shard access did not panic")
	}()
}

// TestCrossReadOnly: a body with no stores commits nothing anywhere.
func TestCrossReadOnly(t *testing.T) {
	st, err := NewVolatile(2, false, twoShardRange(), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := st.Stats().Commits
	res, err := st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
		return m.Load(0, tm.Root(0)) + m.Load(1, tm.Root(0))
	})
	if err != nil || res != 0 {
		t.Fatalf("read-only cross = (%d, %v)", res, err)
	}
	if got := st.Stats().Commits; got != before {
		t.Fatalf("read-only cross committed %d transactions", got-before)
	}
	if cs := st.CrossStats(); cs.CrossReadOnly != 1 {
		t.Fatalf("CrossStats.CrossReadOnly = %d, want 1", cs.CrossReadOnly)
	}
}

// TestCrossErrors: empty key set and write sets too large to stage.
func TestCrossErrors(t *testing.T) {
	st, err := NewVolatile(2, false, twoShardRange(),
		tm.WithHeapWords(1<<12), tm.WithMaxThreads(4), tm.WithMaxStores(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.UpdateCross(nil, func(tm.MultiTx) uint64 { return 0 }); !errors.Is(err, tm.ErrNoKeys) {
		t.Fatalf("empty keys error = %v, want ErrNoKeys", err)
	}
	_, err = st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
		m.Store(0, tm.Root(2), 1)
		for i := 0; i < 20; i++ { // shard 1 stages 2*20+32 > 64 stores
			m.Store(1, tm.Ptr(100+i), uint64(i))
		}
		return 0
	})
	if !errors.Is(err, tm.ErrTooManyStores) {
		t.Fatalf("oversized cross error = %v, want ErrTooManyStores", err)
	}
	// The failed transaction wrote nothing.
	if got := st.Read(2000, func(tx tm.Tx) uint64 { return tx.Load(tm.Ptr(105)) }); got != 0 {
		t.Fatalf("aborted cross leaked a write: %d", got)
	}
}

// TestCrossShardExactlyOnce is the race-enabled conservation test of the
// issue: 4×GOMAXPROCS workers hammer single-shard increments and
// cross-shard transfers; every increment must land exactly once and
// transfers must conserve the total.
func TestCrossShardExactlyOnce(t *testing.T) {
	const shards = 4
	const initialPot = 1 << 20
	variants := []struct {
		name string
		mk   func() (*Store, error)
	}{
		{"OF-LF", func() (*Store, error) { return NewVolatile(shards, false, nil, testOpts()...) }},
		{"OF-WF", func() (*Store, error) { return NewVolatile(shards, true, nil, testOpts()...) }},
		{"OF-LF-PTM", func() (*Store, error) {
			return NewPersistent(newSimDevs(t, shards, testOpts()...), false, false, nil, testOpts()...)
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			st, err := v.mk()
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for s := 0; s < shards; s++ {
				st.UpdateOn(s, func(tx tm.Tx) uint64 {
					tx.Store(tm.Root(0), initialPot)
					return 0
				})
			}
			workers := 4 * runtime.GOMAXPROCS(0)
			iters := 300
			if testing.Short() {
				iters = 100
			}
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if i%10 == 9 {
							// Cross-shard transfer: conserve the pot sum.
							a := (w + i) % shards
							b := (a + 1 + i%(shards-1)) % shards
							keys := []uint64{uint64(a), uint64(b)}
							_, err := st.UpdateCross(keys, func(m tm.MultiTx) uint64 {
								sa := st.ShardFor(keys[0])
								sb := st.ShardFor(keys[1])
								m.Store(sa, tm.Root(0), m.Load(sa, tm.Root(0))-1)
								m.Store(sb, tm.Root(0), m.Load(sb, tm.Root(0))+1)
								return 0
							})
							if err != nil {
								t.Error(err)
								return
							}
						} else {
							// Single-shard increment on the worker's stripe.
							st.Update(uint64(w*iters+i), func(tx tm.Tx) uint64 {
								tx.Store(tm.Root(1), tx.Load(tm.Root(1))+1)
								return 0
							})
						}
					}
				}()
			}
			wg.Wait()
			var potSum, incSum uint64
			for s := 0; s < shards; s++ {
				potSum += st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
				incSum += st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
			}
			if potSum != shards*initialPot {
				t.Fatalf("transfer sum not conserved: %d, want %d", potSum, shards*initialPot)
			}
			wantIncs := uint64(workers * (iters - iters/10))
			if incSum != wantIncs {
				t.Fatalf("increments = %d, want %d (lost or duplicated updates)", incSum, wantIncs)
			}
		})
	}
}

// TestCrossShardCrashRecovery: a whole-store crash after cross-shard
// commits recovers the exact sums, and the epoch counter resumes past
// everything durable.
func TestCrossShardCrashRecovery(t *testing.T) {
	opts := testOpts()
	devs := newSimDevs(t, 2, opts...)
	st, err := NewPersistent(devs, false, false, twoShardRange(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		st.UpdateOn(s, func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1000); return 0 })
	}
	for i := 0; i < 5; i++ {
		if _, err := st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
			m.Store(0, tm.Root(0), m.Load(0, tm.Root(0))-10)
			m.Store(1, tm.Root(0), m.Load(1, tm.Root(0))+10)
			return 0
		}); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := st.Epoch()
	if epochBefore == 0 {
		t.Fatal("2PC epochs never advanced")
	}

	for _, d := range devs {
		d.Crash()
	}
	rst, err := NewPersistent(devs, false, true, twoShardRange(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	a := rst.ReadOn(0, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
	b := rst.ReadOn(1, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
	if a != 950 || b != 1050 {
		t.Fatalf("recovered pots = (%d, %d), want (950, 1050)", a, b)
	}
	if rst.Epoch() < epochBefore {
		t.Fatalf("epoch resumed at %d, below pre-crash %d", rst.Epoch(), epochBefore)
	}
	// The recovered store still commits cross-shard.
	if _, err := rst.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
		m.Store(0, tm.Root(0), m.Load(0, tm.Root(0))+1)
		m.Store(1, tm.Root(0), m.Load(1, tm.Root(0))+1)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInDoubtResolution drives resolveInDoubt through both verdicts by
// planting prepare records directly (they are ordinary heap words):
// a prepared epoch whose coordinator decided commits and replays; one
// whose coordinator never decided aborts with user data untouched.
func TestInDoubtResolution(t *testing.T) {
	for _, committed := range []bool{true, false} {
		name := "abort"
		if committed {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			opts := testOpts()
			devs := newSimDevs(t, 2, opts...)
			st, err := NewPersistent(devs, false, false, twoShardRange(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			const epoch = 9
			// Shard 1: a staged store of 77 into Root(5), prepared at
			// epoch 9 with coordinator 0.
			st.UpdateOn(1, func(tx tm.Tx) uint64 {
				blk := ensureStaging(tx, 1)
				tx.Store(blk+1, uint64(tm.Root(5)))
				tx.Store(blk+2, 77)
				tx.Store(tm.Root(rootCount), 1)
				tx.Store(tm.Root(rootCoord), 0)
				tx.Store(tm.Root(rootEpoch), epoch)
				return 0
			})
			if committed {
				st.UpdateOn(0, func(tx tm.Tx) uint64 {
					tx.Store(tm.Root(rootDecide), epoch)
					return 0
				})
			}
			for _, d := range devs {
				d.Crash()
			}
			rst, err := NewPersistent(devs, false, true, twoShardRange(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer rst.Close()
			got := rst.ReadOn(1, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(5)) })
			ep := rst.ReadOn(1, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(rootEpoch)) })
			cs := rst.CrossStats()
			if ep != 0 {
				t.Fatalf("prepare record not cleared: epoch %d", ep)
			}
			if committed {
				if got != 77 || cs.RecoveredHalf != 1 {
					t.Fatalf("commit resolution: Root(5)=%d stats=%+v", got, cs)
				}
			} else {
				if got != 0 || cs.RecoveredAbort != 1 {
					t.Fatalf("abort resolution: Root(5)=%d stats=%+v", got, cs)
				}
			}
			if rst.Epoch() < epoch {
				t.Fatalf("epoch resumed at %d, below planted %d", rst.Epoch(), epoch)
			}
		})
	}
}

// TestOpenFiles: the file-backed store round-trips across close/reopen and
// refuses a partial shard set.
func TestOpenFiles(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	st, existed, err := OpenFiles(dir, 2, false, pmem.StrictMode, 1, twoShardRange(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Fatal("fresh directory reported existing store")
	}
	if _, err := st.UpdateCross([]uint64{1, 2000}, func(m tm.MultiTx) uint64 {
		m.Store(0, tm.Root(0), 111)
		m.Store(1, tm.Root(0), 222)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rst, existed, err := OpenFiles(dir, 2, false, pmem.StrictMode, 1, twoShardRange(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !existed {
		t.Fatal("reopen did not report an existing store")
	}
	a := rst.ReadOn(0, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
	b := rst.ReadOn(1, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
	if a != 111 || b != 222 {
		t.Fatalf("reopened store = (%d, %d), want (111, 222)", a, b)
	}
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(shardFile(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFiles(dir, 2, false, pmem.StrictMode, 1, twoShardRange(), opts...); err == nil {
		t.Fatal("partial shard set accepted")
	}
}

// TestStatsSumsEveryCounter: the store's Stats is the field-wise sum of its
// engines' (a hand-written sum once dropped fields).
func TestStatsSumsEveryCounter(t *testing.T) {
	st, err := NewVolatile(2, false, twoShardRange(), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	inc := func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
		return 0
	}
	for i := 0; i < 3; i++ {
		st.Engine(0).Update(inc)
	}
	st.Engine(1).Update(inc)
	st.Engine(1).Update(inc)
	var want tm.Stats
	for i := 0; i < st.Shards(); i++ {
		want = want.Add(st.Engine(i).Stats())
	}
	got := st.Stats()
	if got != want {
		t.Fatalf("Stats = %+v, want the engines' sum %+v", got, want)
	}
	if got.Commits != 5 {
		t.Fatalf("Commits = %d, want 5", got.Commits)
	}
}

// TestShardStreamScaling: 4 shards under single-shard transactions on
// uniformly spread keys sustain at least 3 independent commit streams —
// total curTx advances over the busiest shard's, the median of three runs.
// A ratio of per-engine commit counts holds on any host width: one core
// serialises the cycles, not the streams.
func TestShardStreamScaling(t *testing.T) {
	const shards, workers, entries = 4, 8, 1024
	run := func() float64 {
		st, err := NewVolatile(shards, false, nil, tm.WithHeapWords(1<<12), tm.WithMaxThreads(2*workers))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		bases := make([]tm.Ptr, shards)
		before := make([]uint64, shards)
		for s := range bases {
			bases[s] = tm.Ptr(st.UpdateOn(s, func(tx tm.Tx) uint64 { return uint64(tx.Alloc(entries)) }))
			before[s] = st.Engine(s).CurSeq()
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for !stop.Load() {
					k := rng.Uint64()
					base := bases[st.ShardFor(k)]
					i, j := base+tm.Ptr(k%entries), base+tm.Ptr(k/entries%entries)
					st.Update(k, func(tx tm.Tx) uint64 {
						a, b := tx.Load(i), tx.Load(j)
						tx.Store(i, b)
						tx.Store(j, a)
						return 0
					})
				}
			}(rand.New(rand.NewSource(int64(w + 1))))
		}
		time.Sleep(150 * time.Millisecond)
		stop.Store(true)
		wg.Wait()
		var total, busiest uint64
		for s := range before {
			adv := st.Engine(s).CurSeq() - before[s]
			total += adv
			busiest = max(busiest, adv)
		}
		return float64(total) / float64(busiest)
	}
	streams := []float64{run(), run(), run()}
	sort.Float64s(streams)
	if !(streams[1] >= 3) { // NaN when nothing committed
		t.Fatalf("4 shards sustain %.2f independent commit streams (runs %.2f), want >= 3", streams[1], streams)
	}
	t.Logf("4 shards: %.2f independent commit streams", streams[1])
}
