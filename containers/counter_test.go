package containers

import (
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/dcas"
	"onefile/internal/tm"
)

func TestCounter(t *testing.T) {
	forEach(t, func(t *testing.T, e Engine) {
		c := NewCounter(e, 0)
		if c.Value() != 0 {
			t.Fatalf("fresh counter = %d", c.Value())
		}
		for i := uint64(1); i <= 10; i++ {
			if got := c.Inc(); got != i {
				t.Fatalf("Inc #%d returned %d", i, got)
			}
		}
		if got := c.Add(90); got != 100 {
			t.Fatalf("Add(90) returned %d", got)
		}
		// Composition: two counters move atomically.
		d := NewCounter(e, 1)
		e.Update(func(tx Tx) uint64 {
			c.AddTx(tx, 5)
			d.IncTx(tx)
			return 0
		})
		if c.Value() != 105 || d.Value() != 1 {
			t.Fatalf("after composed tx: c=%d d=%d", c.Value(), d.Value())
		}
	})
}

func TestCounterConcurrent(t *testing.T) {
	forEach(t, func(t *testing.T, e Engine) {
		c := NewCounter(e, 0)
		const workers, per = 8, 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if got := c.Value(); got != workers*per {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
	})
}

// TestContainersRideFastPath checks the transparent wiring: small container
// bodies commit on the engine's fast path, and always-ineligible bodies stop
// probing after smallGiveUp misses instead of paying the probe forever.
func TestContainersRideFastPath(t *testing.T) {
	e := core.NewLF(testOpts...)

	c := NewCounter(e, 0)
	before := e.Stats()
	for i := 0; i < 50; i++ {
		c.Inc()
	}
	if d := e.Stats().Sub(before); d.FastCommits < 50 {
		t.Fatalf("counter incs: %d fast commits, want >=50", d.FastCommits)
	}

	// Duplicate hash-set adds are read-only bodies: the probe ends them as
	// read commits — no fallback, no update commit.
	h := NewHashSet(e, 1)
	h.Add(7)
	before = e.Stats()
	for i := 0; i < 20; i++ {
		if h.Add(7) {
			t.Fatal("duplicate add changed the set")
		}
		if h.Remove(99) {
			t.Fatal("absent remove changed the set")
		}
	}
	if d := e.Stats().Sub(before); d.ReadCommits < 40 || d.Commits != 0 || d.FastFallbacks != 0 {
		t.Fatalf("no-op set ops: %d read commits, %d commits, %d fallbacks; want >=40, 0, 0", d.ReadCommits, d.Commits, d.FastFallbacks)
	}

	// Queue enqueues always allocate: the hint must converge to the full
	// path, so ineligible fallbacks stop growing after smallGiveUp probes.
	q := NewQueue(e, 2)
	before = e.Stats()
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(i)
	}
	if d := e.Stats().Sub(before); d.FastFallbacks > smallGiveUp {
		t.Fatalf("enqueue kept probing: %d fallbacks, want <=%d", d.FastFallbacks, smallGiveUp)
	}

	// An engine without a fast path still runs everything correctly.
	var plain Engine = plainEngine{e}
	c2 := NewCounter(plain, 3)
	for i := uint64(1); i <= 5; i++ {
		if got := c2.Inc(); got != i {
			t.Fatalf("plain-engine Inc returned %d, want %d", got, i)
		}
	}
}

// plainEngine hides the SmallUpdater method of a core engine, modelling a
// baseline engine without a fast path.
type plainEngine struct{ e *core.Engine }

func (p plainEngine) Update(fn func(tm.Tx) uint64) uint64 { return p.e.Update(fn) }
func (p plainEngine) Read(fn func(tm.Tx) uint64) uint64   { return p.e.Read(fn) }
func (p plainEngine) Name() string                        { return "plain" }
func (p plainEngine) Stats() tm.Stats                     { return p.e.Stats() }
func (p plainEngine) Close() error                        { return p.e.Close() }

// TestCounterIncAllocFree pins the zero-allocation contract of Counter.Inc
// on the fast path (ISSUE 10 satellite: containers ride the fast path with
// 0 allocs/op) — beyond, on the pointer-emulated TM word (race builds), the
// one fresh pair its DCAS installs.
func TestCounterIncAllocFree(t *testing.T) {
	want := 0.0
	if !dcas.Native {
		want = 1
	}
	e := core.NewLF(testOpts...)
	c := NewCounter(e, 0)
	for i := 0; i < 1000; i++ {
		c.Inc()
	}
	if avg := testing.AllocsPerRun(500, func() { c.Inc() }); avg != want {
		t.Fatalf("Counter.Inc allocs/op = %v, want %v", avg, want)
	}
}
