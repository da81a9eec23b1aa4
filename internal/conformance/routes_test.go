package conformance

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Route equivalence: internal/core has one update pipeline behind four
// entries (DESIGN.md §4), so the same body must leave the same heap, raise
// or deliver its failure as each entry's contract says, move the same
// counters and land in the histograms DESIGN.md §11 names — whichever entry
// it came in by, on all four OneFile variants.

var routeOpts = []tm.Option{
	tm.WithHeapWords(1 << 14),
	tm.WithMaxThreads(4),
	tm.WithMaxStores(16),
}

var errBoom = errors.New("body boom")

// routeEngines are the four OneFile variants, by name.
var routeEngines = []struct {
	name string
	mk   func(t *testing.T) *core.Engine
}{
	{"OF-LF", func(*testing.T) *core.Engine { return core.NewLF(routeOpts...) }},
	{"OF-WF", func(*testing.T) *core.Engine { return core.NewWF(routeOpts...) }},
	{"OF-LF-PTM", func(t *testing.T) *core.Engine { return strictPTM(t, false, routeOpts) }},
	{"OF-WF-PTM", func(t *testing.T) *core.Engine { return strictPTM(t, true, routeOpts) }},
}

// strictPTM formats a OneFile PTM on a fresh strict simulator.
func strictPTM(t *testing.T, waitFree bool, opts []tm.Option) *core.Engine {
	t.Helper()
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	open := core.NewPersistentLF
	if waitFree {
		open = core.NewPersistentWF
	}
	e, err := open(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// outcome is what one entry made of one body: the value, and the failure
// either re-raised on the caller (raised) or delivered as an error (err).
type outcome struct {
	res    uint64
	raised any
	err    error
}

// route is one public update entry of core.Engine.
type route struct {
	name string
	// futures: failures arrive as the future's error; otherwise they are
	// re-raised on the caller.
	futures bool
	// combined: the entry runs a batch (Batches/BatchedOps).
	combined bool
	call     func(e *core.Engine, fn func(tm.Tx) uint64) outcome
}

func catching(f func() outcome) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{raised: r}
		}
	}()
	return f()
}

var routes = []route{
	{name: "Update", call: func(e *core.Engine, fn func(tm.Tx) uint64) outcome {
		return catching(func() outcome { return outcome{res: e.Update(fn)} })
	}},
	{name: "AsyncUpdate", futures: true, combined: true, call: func(e *core.Engine, fn func(tm.Tx) uint64) outcome {
		return catching(func() outcome {
			res, err := e.AsyncUpdate(fn).Wait()
			return outcome{res: res, err: err}
		})
	}},
	{name: "BatchUpdate", futures: true, combined: true, call: func(e *core.Engine, fn func(tm.Tx) uint64) outcome {
		return catching(func() outcome {
			r := e.BatchUpdate([]func(tm.Tx) uint64{fn})[0]
			return outcome{res: r.Val, err: r.Err}
		})
	}},
	{name: "UpdateExclusive", call: func(e *core.Engine, fn func(tm.Tx) uint64) outcome {
		return catching(func() outcome {
			e.BeginExclusive()
			defer e.EndExclusive()
			return outcome{res: e.UpdateExclusive(fn)}
		})
	}},
}

// Root(0), Root(1) and Root(2) share pair cache line 0 (heap words 1–3);
// crossLine is on the next one.
var crossLine = tm.Root(0) + tm.Ptr(pmem.PairLineWords)

// routeBody is one row of the table.
type routeBody struct {
	name string
	fn   func(tx tm.Tx) uint64
	want uint64
	// fails: the body panics with this value (nil: it commits).
	fails error
	// words: distinct words a committing execution stores (0: read-only).
	words  int
	closed bool // run against a closed engine
}

var routeBodies = []routeBody{
	{name: "1-word", words: 1, want: 11,
		fn: func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 11); return 11 }},
	{name: "2-word same line", words: 2, want: 3,
		fn: func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(0), 1)
			tx.Store(tm.Root(1), tx.Load(tm.Root(0))+1)
			return tx.Load(tm.Root(0)) + tx.Load(tm.Root(1))
		}},
	{name: "2-word cross line", words: 2, want: 7,
		fn: func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 3); tx.Store(crossLine, 4); return 7 }},
	{name: "allocating", words: 3, // at least: the block, its link, allocator metadata
		fn: func(tx tm.Tx) uint64 {
			p := tx.Alloc(2)
			tx.Store(p, 5)
			tx.Store(p+1, 6)
			tx.Store(tm.Root(3), uint64(p))
			return 0
		}},
	{name: "5-word", words: 5, want: 5,
		fn: func(tx tm.Tx) uint64 {
			for i := 0; i < 5; i++ {
				tx.Store(tm.Root(8+i), uint64(100+i))
			}
			return 5
		}},
	{name: "read-only", want: 0,
		fn: func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }},
	{name: "panicking", fails: errBoom,
		fn: func(tx tm.Tx) uint64 { tx.Store(tm.Root(20), 1); panic(errBoom) }},
	{name: "ErrTooManyStores", fails: tm.ErrTooManyStores,
		fn: func(tx tm.Tx) uint64 {
			for i := 0; i < 17; i++ { // MaxStores is 16
				tx.Store(tm.Root(30+i), 1)
			}
			return 0
		}},
	{name: "after Close", closed: true, fails: tm.ErrEngineClosed,
		fn: func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 }},
}

// heapDigest reads every word a routeBody can have touched.
func heapDigest(e *core.Engine) string {
	var out string
	e.Read(func(tx tm.Tx) uint64 {
		out = ""
		for i := 0; i < tm.NumRoots; i++ {
			out += fmt.Sprintf("%d,", tx.Load(tm.Root(i)))
		}
		out += fmt.Sprintf("|%d", tx.Load(crossLine))
		if p := tm.Ptr(tx.Load(tm.Root(3))); p != 0 {
			out += fmt.Sprintf("|%d,%d", tx.Load(p), tx.Load(p+1))
		}
		return 0
	})
	return out
}

// histCounts snapshots the sample counts of the sink's histograms.
type histCounts struct{ update, read, solo, batch, batchSize uint64 }

func countsOf(o *core.EngineObs) histCounts {
	return histCounts{
		update: o.UpdateLat.Count(), read: o.ReadLat.Count(),
		solo: o.SoloLat.Count(), batch: o.BatchLat.Count(),
		batchSize: o.BatchSize.Count(),
	}
}

func (a histCounts) sub(b histCounts) histCounts {
	return histCounts{a.update - b.update, a.read - b.read,
		a.solo - b.solo, a.batch - b.batch, a.batchSize - b.batchSize}
}

func TestRouteEquivalence(t *testing.T) {
	for _, eng := range routeEngines {
		persistent := eng.name == "OF-LF-PTM" || eng.name == "OF-WF-PTM"
		for _, b := range routeBodies {
			t.Run(eng.name+"/"+b.name, func(t *testing.T) {
				heaps := map[string]string{}
				for _, r := range routes {
					// A fresh engine per entry, so the heaps are comparable.
					e := eng.mk(t)
					sink := e.RegisterMetrics(obs.NewRegistry(), "route")
					if b.closed {
						e.Close()
					}
					var runs atomic.Int32
					before, hBefore := e.Stats(), countsOf(sink)
					o := r.call(e, func(tx tm.Tx) uint64 { runs.Add(1); return b.fn(tx) })
					d, h := e.Stats().Sub(before), countsOf(sink).sub(hBefore)
					at := func(format string, args ...any) string {
						return r.name + ": " + fmt.Sprintf(format, args...)
					}

					// The error contract: re-raised on the caller, or the
					// future's error — never both, never the wrong one.
					switch {
					case b.fails == nil:
						if o.raised != nil || o.err != nil {
							t.Fatal(at("raised %v, err %v; want a commit", o.raised, o.err))
						}
						if b.name != "allocating" && o.res != b.want {
							t.Error(at("result %d, want %d", o.res, b.want))
						}
					case r.futures:
						if o.raised != nil || !errors.Is(o.err, b.fails) {
							t.Fatal(at("raised %v, err %v; want the future to carry %v", o.raised, o.err, b.fails))
						}
					default:
						if err, _ := o.raised.(error); !errors.Is(err, b.fails) {
							t.Fatal(at("raised %v, err %v; want %v re-raised on the caller", o.raised, o.err, b.fails))
						}
					}
					if b.closed {
						if runs.Load() != 0 || d != (tm.Stats{}) || h != (histCounts{}) {
							t.Error(at("a closed engine ran the body %d times, moved %+v and %+v", runs.Load(), d, h))
						}
						continue
					}

					// How often the body ran: solo, once, on every entry of
					// every variant, failing bodies included.
					if runs.Load() != 1 {
						t.Error(at("body ran %d times, want 1", runs.Load()))
					}

					// Stats. Commits counts each committed operation's
					// transaction once; a read-only body is a read commit
					// (a lone wait-free update commits unpublished, as a
					// lock-free one does, so on every entry of every
					// variant). A body that fails commits nothing and is
					// neither: a batch of one fails its transaction as
					// Update's body fails Update's.
					wantCommits, wantReads := uint64(1), uint64(0)
					switch {
					case b.fails != nil:
						wantCommits = 0
					case b.words == 0:
						wantCommits, wantReads = 0, 1
					}
					if d.Commits != wantCommits || d.ReadCommits != wantReads {
						t.Error(at("Commits %d ReadCommits %d, want %d and %d", d.Commits, d.ReadCommits, wantCommits, wantReads))
					}
					if persistent && d.Pfence != 0 {
						t.Error(at("the commit issued %d pfences, want 0", d.Pfence))
					}
					var wantBatches uint64
					if r.combined {
						wantBatches = 1
					}
					if d.Batches != wantBatches || d.BatchedOps != wantBatches {
						t.Error(at("Batches %d BatchedOps %d, want %d each", d.Batches, d.BatchedOps, wantBatches))
					}

					// Histograms, per the table in DESIGN.md §11. A body
					// that fails has no begin→commit sample on any entry;
					// a future's call→resolve sample still counts it.
					want := histCounts{}
					switch r.name {
					case "AsyncUpdate":
						want.solo = 1
					case "BatchUpdate":
						want.batch, want.batchSize = 1, 1
					}
					if b.fails == nil {
						want.update = 1
					}
					if h != want {
						t.Error(at("histogram samples %+v, want %+v", h, want))
					}

					heaps[r.name] = heapDigest(e)
					// The engine stays usable after whatever happened.
					if got := e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(63), 9); return 9 }); got != 9 {
						t.Error(at("engine unusable afterwards: Update returned %d", got))
					}
				}
				for name, hp := range heaps {
					if hp != heaps["Update"] {
						t.Errorf("heap after %s differs from heap after Update:\n%s\n%s", name, hp, heaps["Update"])
					}
				}
				if b.fails != nil {
					if fresh := heapDigest(eng.mk(t)); len(heaps) > 0 && heaps["Update"] != fresh {
						t.Errorf("a failed body left stores behind:\n%s\n%s", heaps["Update"], fresh)
					}
				}
			})
		}
	}
}
