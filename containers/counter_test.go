package containers

import (
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/dcas"
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

// TestCounterIncAllocFree pins the zero-allocation contract of Counter.Inc
// on a lock-free engine — beyond, on the pointer-emulated TM word (race
// builds), the one fresh pair its DCAS installs.
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
