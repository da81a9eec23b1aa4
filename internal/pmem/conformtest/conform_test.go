// Package conformtest is the device-conformance suite: every pmem.Device
// implementation must pass every test here, so the engines can run
// unmodified on any backend. The semantic tests that used to live in
// internal/pmem are refactored into table-driven sweeps over the backend
// registry below; adding a third backend is one more registry entry.
package conformtest

import (
	"path/filepath"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
)

// backendDef names one Device implementation and how to build a fresh
// device for a config.
type backendDef struct {
	name string
	mk   func(tb testing.TB, cfg pmem.Config) pmem.Device
}

// backends is the conformance registry: every implementation in the
// repository, each held to the same contract.
func backends() []backendDef {
	return []backendDef{
		{"sim", func(tb testing.TB, cfg pmem.Config) pmem.Device {
			tb.Helper()
			d, err := pmem.New(cfg)
			if err != nil {
				tb.Fatalf("pmem.New: %v", err)
			}
			return d
		}},
		{"file", func(tb testing.TB, cfg pmem.Config) pmem.Device {
			tb.Helper()
			d, err := filedev.Create(filepath.Join(tb.TempDir(), "dev.img"), cfg)
			if err != nil {
				tb.Fatalf("filedev.Create: %v", err)
			}
			tb.Cleanup(func() { d.Close() })
			return d
		}},
	}
}

// forEach runs fn as one subtest per registered backend.
func forEach(t *testing.T, fn func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device)) {
	for _, b := range backends() {
		t.Run(b.name, func(t *testing.T) { fn(t, b.mk) })
	}
}

func smallCfg(mode pmem.Mode) pmem.Config {
	return pmem.Config{RawWords: 256, PairWords: 64, Mode: mode, MaxSlots: 4, Seed: 42}
}

func TestStrictFlushSurvivesCrash(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		d.RawStore(3, 77)
		d.Flush(0, 3, 1)
		d.RawStore(4, 88) // same line, stored after the flush: volatile only
		d.Crash()
		if got := d.RawLoad(3); got != 77 {
			t.Errorf("flushed word = %d, want 77", got)
		}
		if got := d.RawLoad(4); got != 0 {
			t.Errorf("unflushed word survived crash: %d", got)
		}
	})
}

func TestUnflushedStoreLostOnCrash(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		d.RawStore(10, 5)
		d.Crash()
		if got := d.RawLoad(10); got != 0 {
			t.Errorf("unflushed store survived crash: %d", got)
		}
	})
}

func TestFlushCoversWholeLine(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		for i := 0; i < pmem.LineWords; i++ {
			d.RawStore(i, uint64(i+1))
		}
		d.Flush(0, 0, 1) // flushing any word persists its whole line
		d.Crash()
		for i := 0; i < pmem.LineWords; i++ {
			if got := d.RawLoad(i); got != uint64(i+1) {
				t.Errorf("word %d = %d after crash, want %d", i, got, i+1)
			}
		}
	})
}

func TestRelaxedFlushNeedsFence(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.RelaxedMode))
		d.RawStore(3, 77)
		d.Flush(0, 3, 1)
		// No fence: the flush is still pending. The image must not have it.
		if got := d.ImageRaw(3); got != 0 {
			t.Errorf("pending flush reached the image without a fence: %d", got)
		}
		d.Fence(0)
		if got := d.ImageRaw(3); got != 77 {
			t.Errorf("fenced flush missing from image: %d", got)
		}
	})
}

func TestRelaxedDrainCommitsWithoutPfence(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.RelaxedMode))
		d.RawStore(3, 9)
		d.Flush(0, 3, 1)
		d.Drain(0)
		if got := d.ImageRaw(3); got != 9 {
			t.Errorf("drained flush missing from image: %d", got)
		}
		if s := d.Stats(); s.Pfence != 0 {
			t.Errorf("Drain counted %d pfences, want 0", s.Pfence)
		}
	})
}

func TestRelaxedCrashDropsSomePending(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		// With many independent pending flushes and a seeded RNG, a crash
		// keeps a strict subset (statistically certain with 64 lines).
		d := mk(t, pmem.Config{RawWords: 64 * pmem.LineWords, PairWords: 1, Mode: pmem.RelaxedMode, MaxSlots: 1, Seed: 7})
		for i := 0; i < 64; i++ {
			d.RawStore(i*pmem.LineWords, uint64(i+1))
			d.Flush(0, i*pmem.LineWords, 1)
		}
		d.Crash()
		kept, lost := 0, 0
		for i := 0; i < 64; i++ {
			if d.RawLoad(i*pmem.LineWords) == uint64(i+1) {
				kept++
			} else {
				lost++
			}
		}
		if kept == 0 || lost == 0 {
			t.Errorf("crash kept %d and lost %d pending flushes; expected a mix", kept, lost)
		}
	})
}

func TestPairMonotonicGuard(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		d.FlushPair(0, 5, 10, 3)
		// A delayed flusher with an older snapshot must not regress the image.
		d.FlushPair(0, 5, 9, 2)
		if v, s := d.ImagePair(5); v != 10 || s != 3 {
			t.Errorf("image regressed to (%d,%d), want (10,3)", v, s)
		}
		d.FlushPair(0, 5, 11, 4)
		if v, s := d.ImagePair(5); v != 11 || s != 4 {
			t.Errorf("image = (%d,%d), want (11,4)", v, s)
		}
	})
}

func TestPairRelaxedPendingDroppedOnCrash(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.RelaxedMode))
		d.FlushPair(0, 1, 1, 1)
		d.Drain(0)
		// Pending, never drained: may be kept or dropped at crash, but word 1
		// (drained) must survive.
		d.FlushPair(0, 2, 2, 1)
		d.Crash()
		if v, s := d.ImagePair(1); v != 1 || s != 1 {
			t.Errorf("drained pair lost: (%d,%d)", v, s)
		}
	})
}

func TestFlushPairLinePersistsWholeLine(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		var idx [pmem.PairLineWords]int
		var vals, seqs [pmem.PairLineWords]uint64
		for i := 0; i < pmem.PairLineWords; i++ {
			idx[i] = 4 + i // one pair line
			vals[i] = uint64(100 + i)
			seqs[i] = 7
		}
		before := d.Stats().Pwb
		d.FlushPairLine(0, pmem.PairLineWords, &idx, &vals, &seqs)
		if got := d.Stats().Pwb - before; got != 1 {
			t.Errorf("FlushPairLine issued %d pwbs, want 1", got)
		}
		for i := 0; i < pmem.PairLineWords; i++ {
			if v, s := d.ImagePair(idx[i]); v != vals[i] || s != 7 {
				t.Errorf("pair %d = (%d,%d), want (%d,7)", idx[i], v, s, vals[i])
			}
		}
	})
}

// TestImagePairsMatchesImagePair: the bulk read returns, for every window
// — whole region, unaligned interior, single word, empty — exactly what
// ImagePair returns word by word, and only durable content: a relaxed flush
// still waiting for its fence is absent from both.
func TestImagePairsMatchesImagePair(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.RelaxedMode))
		n := d.PairWords()
		for i := 0; i < n; i += 3 {
			d.FlushPair(0, i, uint64(1000+i), uint64(i+1))
		}
		d.Fence(0)
		d.FlushPair(0, 1, 555, 9) // pending: no fence follows
		for _, win := range [][2]int{{0, n}, {5, 13}, {n - 1, 1}, {7, 0}} {
			lo, cnt := win[0], win[1]
			got := d.ImagePairs(lo, cnt)
			if len(got) != cnt {
				t.Fatalf("window [%d,+%d): view of %d words", lo, cnt, len(got))
			}
			for i, p := range got {
				if v, s := d.ImagePair(lo + i); p.Val != v || p.Seq != s {
					t.Fatalf("window [%d,+%d): word %d = (%d,%d), ImagePair says (%d,%d)", lo, cnt, lo+i, p.Val, p.Seq, v, s)
				}
			}
		}
		if one := d.ImagePairs(1, 1)[0]; one != (pmem.Pair{}) {
			t.Fatalf("un-fenced flush visible in the bulk image: %+v", one)
		}
		if one := d.ImagePairs(3, 1)[0]; one != (pmem.Pair{Val: 1003, Seq: 4}) {
			t.Fatalf("word 3 = %+v, want (1003,4)", one)
		}
	})
}

// TestImagePairsIsTheImage: the bulk read is a view of the image, not a copy.
// A strict program that leaves lines staged on two slots finds them in the
// view — ImagePairs settles once, like every image observer — word for word
// as ImagePair reports them; two views of one window share their memory; and
// a view taken before a later write-back shows that write-back, which is the
// lifetime rule seen from the other side: a view is only good until the
// device is next written.
func TestImagePairsIsTheImage(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		n := d.PairWords()
		for i := 0; i < n; i += 2 {
			d.FlushPair(i/2%2, i, uint64(7000+i), uint64(i+1)) // staged: no ordering point follows
		}
		view := d.ImagePairs(0, n)
		for i, p := range view {
			v, s := d.ImagePair(i)
			if p.Val != v || p.Seq != s {
				t.Fatalf("word %d: view (%d,%d), ImagePair (%d,%d)", i, p.Val, p.Seq, v, s)
			}
			if want := (pmem.Pair{Val: uint64(7000 + i), Seq: uint64(i + 1)}); i%2 == 0 && p != want {
				t.Fatalf("staged word %d missing from the view: %+v, want %+v", i, p, want)
			}
		}
		if again := d.ImagePairs(5, 3); &again[0] != &view[5] {
			t.Fatalf("two views of word 5 at %p and %p: ImagePairs copied", &again[0], &view[5])
		}
		d.FlushPair(0, 1, 42, 99)
		d.Fence(0)
		if view[1] != (pmem.Pair{Val: 42, Seq: 99}) {
			t.Fatalf("view taken before a write-back does not show it: %+v", view[1])
		}
	})
}

func TestStatsCountPwbPerLine(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		d.Flush(0, 0, 1) // 1 line
		d.Flush(0, 0, pmem.LineWords+1)
		d.Fence(0)
		s := d.Stats()
		if s.Pwb != 3 {
			t.Errorf("Pwb = %d, want 3 (1 + 2 lines)", s.Pwb)
		}
		if s.Pfence != 1 {
			t.Errorf("Pfence = %d, want 1", s.Pfence)
		}
		d.ResetStats()
		if s := d.Stats(); s.Pwb != 0 || s.Pfence != 0 {
			t.Errorf("ResetStats left %+v", s)
		}
	})
}

func TestHookFiresPerEvent(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		var evs []pmem.Event
		d.SetHook(func(ev pmem.Event) { evs = append(evs, ev) })
		d.Flush(0, 0, 1)
		d.Fence(0)
		d.Drain(0)
		d.SetHook(nil)
		d.Flush(0, 0, 1) // not recorded
		want := []pmem.Event{pmem.EvPwb, pmem.EvFence, pmem.EvDrain}
		if len(evs) != len(want) {
			t.Fatalf("got %d events, want %d", len(evs), len(want))
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Errorf("event %d = %v, want %v", i, evs[i], want[i])
			}
		}
	})
}

func TestRawCASAndAdd(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		if !d.RawCAS(0, 0, 5) {
			t.Fatal("CAS from zero failed")
		}
		if d.RawCAS(0, 0, 9) {
			t.Fatal("CAS with stale expectation succeeded")
		}
		if got := d.RawAdd(0, 3); got != 8 {
			t.Fatalf("RawAdd = %d, want 8", got)
		}
	})
}

func TestRawRegionAliasesDevice(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		r := d.RawRegion(8, 4)
		r[0].Store(123)
		if got := d.RawLoad(8); got != 123 {
			t.Errorf("region store invisible through device: %d", got)
		}
	})
}
