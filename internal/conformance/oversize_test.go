package conformance

// Cross-engine contract test for oversized write sets (tm.ErrTooManyStores).
// The documented contract is uniform: the store that would overflow
// MaxStores panics with exactly that value, the transaction's effects are
// fully undone (eager engines roll back in-place stores and release their
// locks), and the engine stays usable. Layers with an error return
// translate the panic: futures carry it as the operation's
// error, and the sharded store's cross-shard staging path returns it
// wrapped. Every branch is pinned here, over every engine.

import (
	"errors"
	"testing"

	"onefile/internal/shard"
	"onefile/internal/tm"
)

const (
	ovBlocks    = 6   // pre-allocated blocks the oversized tx writes through
	ovBlockLen  = 256 // words per block; 6*256 = 1536 > MaxStores (1<<10)
	ovRootFirst = 8   // roots ovRootFirst..+ovBlocks hold the block pointers
)

func ovSentinel(b, i int) uint64 { return 0xA5A5_0000_0000_0000 | uint64(b)<<16 | uint64(i) }

// ovSetup allocates the blocks (each in its own small transaction) and
// fills them with sentinels. Block pointers are published through roots so
// re-run transaction bodies can't leak a non-committed Alloc result.
func ovSetup(e tm.Engine) {
	for b := 0; b < ovBlocks; b++ {
		bb := b
		e.Update(func(tx tm.Tx) uint64 {
			p := tx.Alloc(ovBlockLen)
			for i := 0; i < ovBlockLen; i++ {
				tx.Store(p+tm.Ptr(i), ovSentinel(bb, i))
			}
			tx.Store(tm.Root(ovRootFirst+bb), uint64(p))
			return 0
		})
	}
}

// ovBody is the oversized transaction: it rewrites every word of every
// block — 1536 distinct addresses, so write-set deduplication cannot save
// it — and must die on tm.ErrTooManyStores partway through.
func ovBody(tx tm.Tx) uint64 {
	for b := 0; b < ovBlocks; b++ {
		p := tm.Ptr(tx.Load(tm.Root(ovRootFirst + b)))
		for i := 0; i < ovBlockLen; i++ {
			tx.Store(p+tm.Ptr(i), 0xDEAD)
		}
	}
	return 0
}

// ovCheck asserts every sentinel survived (the failed transaction left no
// trace) using read-only transactions.
func ovCheck(t *testing.T, e tm.Engine, when string) {
	t.Helper()
	for b := 0; b < ovBlocks; b++ {
		bb := b
		bad := e.Read(func(tx tm.Tx) uint64 {
			p := tm.Ptr(tx.Load(tm.Root(ovRootFirst + bb)))
			for i := 0; i < ovBlockLen; i++ {
				if tx.Load(p+tm.Ptr(i)) != ovSentinel(bb, i) {
					return uint64(i) + 1
				}
			}
			return 0
		})
		if bad != 0 {
			t.Fatalf("%s: block %d word %d lost its sentinel (oversized tx leaked a write)",
				when, b, bad-1)
		}
	}
}

// TestOversizedWriteSet is the cross-engine table test: the overflow panics
// with exactly tm.ErrTooManyStores, rolls back completely, releases any
// held locks (a follow-up update to the same words must not deadlock), and
// on the persistent engines the rollback itself is crash-consistent.
func TestOversizedWriteSet(t *testing.T) {
	forEachEngine(t, func(t *testing.T, f fixture) {
		e := f.e
		ovSetup(e)

		got := func() (p any) {
			defer func() { p = recover() }()
			e.Update(ovBody)
			return nil
		}()
		if !errors.Is(asErr(got), tm.ErrTooManyStores) {
			t.Fatalf("oversized Update panicked with %v, want tm.ErrTooManyStores", got)
		}
		ovCheck(t, e, "after abort")

		// The engine is still usable and the aborted transaction's locks
		// are gone: update the very words the failed body touched.
		e.Update(func(tx tm.Tx) uint64 {
			p := tm.Ptr(tx.Load(tm.Root(ovRootFirst)))
			tx.Store(p, ovSentinel(0, 0)) // same value, real store
			return 0
		})

		// Combining engines deliver the same value as the future's error
		// instead of panicking on the submitter.
		if c, ok := e.(tm.Combining); ok {
			if _, err := c.AsyncUpdate(ovBody).Wait(); !errors.Is(err, tm.ErrTooManyStores) {
				t.Fatalf("AsyncUpdate error = %v, want tm.ErrTooManyStores", err)
			}
			ovCheck(t, e, "after combined abort")
		}

		// Persistent engines: crash right after the aborted transaction
		// and verify the rollback was durably complete — no aborted value
		// may surface in the recovered heap (the undo-log engine's
		// rollback flushes its restorations before truncating the WAL
		// count for exactly this reason).
		if f.crash != nil {
			r := f.crash(t)
			ovCheck(t, r, "after crash+recover")
			r.Close()
		} else {
			e.Close()
		}
	})
}

// TestOversizedCrossShardStaging pins the one layer that reports overflow
// by error return instead of panic: a cross-shard transaction whose staged
// write set would not fit a participant's write-set capacity fails with a
// wrapped tm.ErrTooManyStores, and writes nothing.
func TestOversizedCrossShardStaging(t *testing.T) {
	st, err := shard.NewVolatile(2, false, nil,
		tm.WithHeapWords(1<<15), tm.WithMaxThreads(8), tm.WithMaxStores(1<<10))
	if err != nil {
		t.Fatalf("NewVolatile: %v", err)
	}
	defer st.Close()

	// One key per shard so both participate.
	keys := []uint64{0, 0}
	for k := uint64(0); ; k++ {
		if st.ShardFor(k) != st.ShardFor(keys[0]) {
			keys[1] = k
			break
		}
	}
	w1 := st.ShardFor(keys[1])
	_, err = st.UpdateCross(keys, func(m tm.MultiTx) uint64 {
		m.Store(st.ShardFor(keys[0]), tm.Root(ovRootFirst), 1)
		// Stage enough distinct words on shard w1 that 2*n+meta overflows
		// its MaxStores (1<<10).
		for i := 0; i < 600; i++ {
			m.Store(w1, tm.Ptr(1<<14+i), uint64(i))
		}
		return 0
	})
	if !errors.Is(err, tm.ErrTooManyStores) {
		t.Fatalf("cross-shard staging overflow = %v, want wrapped tm.ErrTooManyStores", err)
	}
	if got := st.ReadOn(w1, func(tx tm.Tx) uint64 { return tx.Load(tm.Ptr(1<<14 + 5)) }); got != 0 {
		t.Fatalf("failed cross-shard tx leaked a staged write: %d", got)
	}
}

// asErr converts a recovered panic value to an error for errors.Is.
func asErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return nil
}
