package bench

import (
	"math"
	"testing"
	"time"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

var smoke = []tm.Option{
	tm.WithHeapWords(1 << 16),
	tm.WithMaxThreads(16),
	tm.WithMaxStores(1 << 11),
}

func TestSPSSmokeAllVolatileEngines(t *testing.T) {
	for _, name := range VolatileEngines {
		t.Run(name, func(t *testing.T) {
			e, err := NewVolatile(name, smoke...)
			if err != nil {
				t.Fatal(err)
			}
			ops := SPS(e, SPSConfig{Entries: 128, SwapsPerTx: 2, Threads: 2, Duration: 50 * time.Millisecond})
			if ops <= 0 {
				t.Fatalf("SPS made no progress on %s", name)
			}
		})
	}
}

func TestSPSAllocSmoke(t *testing.T) {
	e, err := NewVolatile("OF-LF", smoke...)
	if err != nil {
		t.Fatal(err)
	}
	ops := SPS(e, SPSConfig{Entries: 64, SwapsPerTx: 1, Threads: 2, Duration: 50 * time.Millisecond, Alloc: true})
	if ops <= 0 {
		t.Fatal("SPS-alloc made no progress")
	}
}

func TestSPSSmokePersistentEngines(t *testing.T) {
	for _, name := range PersistentEngines {
		t.Run(name, func(t *testing.T) {
			e, _, err := NewPersistent(name, pmem.StrictMode, 1, smoke...)
			if err != nil {
				t.Fatal(err)
			}
			ops := SPS(e, SPSConfig{Entries: 128, SwapsPerTx: 2, Threads: 2, Duration: 50 * time.Millisecond})
			if ops <= 0 {
				t.Fatalf("persistent SPS made no progress on %s", name)
			}
		})
	}
}

func TestSetBenchSmoke(t *testing.T) {
	for _, kind := range []string{"list", "hash", "tree"} {
		e, err := NewVolatile("OF-WF", smoke...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewTMSet(e, kind)
		if err != nil {
			t.Fatal(err)
		}
		ops := SetBench(s, SetConfig{Keys: 64, UpdateRatio: 0.5, Threads: 2, Duration: 50 * time.Millisecond})
		if ops <= 0 {
			t.Fatalf("set bench (%s) made no progress", kind)
		}
	}
	for _, kind := range []string{"list", "tree"} {
		s, err := NewHandmadeSet(kind, 8)
		if err != nil {
			t.Fatal(err)
		}
		ops := SetBench(s, SetConfig{Keys: 64, UpdateRatio: 0.5, Threads: 2, Duration: 50 * time.Millisecond})
		if ops <= 0 {
			t.Fatalf("hand-made set bench (%s) made no progress", kind)
		}
	}
}

func TestQueueBenchSmoke(t *testing.T) {
	e, err := NewVolatile("OF-LF", smoke...)
	if err != nil {
		t.Fatal(err)
	}
	if p := QueueBench(NewTMQueue(e), QueueConfig{Threads: 2, Duration: 50 * time.Millisecond, Prefill: 16}); p <= 0 {
		t.Fatal("TM queue bench made no progress")
	}
	for _, name := range []string{"MSQueue", "WFQueue", "FAAQueue", "LCRQ", "FHMP"} {
		q, err := NewHandmadeQueue(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if p := QueueBench(q, QueueConfig{Threads: 2, Duration: 50 * time.Millisecond, Prefill: 16}); p <= 0 {
			t.Fatalf("%s bench made no progress", name)
		}
	}
}

func TestLatencySmoke(t *testing.T) {
	e, err := NewVolatile("OF-WF", smoke...)
	if err != nil {
		t.Fatal(err)
	}
	ps := Latency(e, LatencyConfig{Counters: 8, Threads: 2, PerThread: 200})
	if len(ps) != len(Percentiles) {
		t.Fatalf("got %d percentiles", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatalf("percentiles not monotone: %v", ps)
		}
	}
}

func TestKillTestSmoke(t *testing.T) {
	for _, eng := range PersistentEngines {
		t.Run(eng, func(t *testing.T) {
			res, err := KillTest(KillConfig{
				Engine:    eng,
				Workers:   4,
				Items:     32,
				Duration:  300 * time.Millisecond,
				KillEvery: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TxPerSec <= 0 {
				t.Fatal("kill test made no progress")
			}
			if res.Kills == 0 {
				t.Fatal("killer never fired")
			}
		})
	}
}

func TestKillTestNoKill(t *testing.T) {
	for _, eng := range []string{"OF-LF-PTM", "PMDK", "RomulusLR"} {
		t.Run(eng, func(t *testing.T) {
			res, err := KillTest(KillConfig{
				Engine:   eng,
				Workers:  4,
				Items:    32,
				Duration: 150 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Kills != 0 {
				t.Fatalf("kills = %d without a killer", res.Kills)
			}
		})
	}
}

// TestTable1OneFileCounts verifies the paper's Table I formulas for the
// OneFile PTMs exactly in their CAS column and within a small tolerance for
// pwb (the paper's 1.25·N_w ignores the two-word log header; we measure
// the real line count). The words are spaced one pair-region cache line
// apart, the paper's implicit one-line-per-word regime — the coalesced
// contiguous case is covered by TestTable1CoalescedContiguous.
func TestTable1OneFileCounts(t *testing.T) {
	for _, eng := range []string{"OF-LF-PTM", "OF-WF-PTM"} {
		for _, nw := range []int{1, 4, 8, 32} {
			got, err := MeasureOpCountsStride(eng, nw, 200, pmem.PairLineWords)
			if err != nil {
				t.Fatal(err)
			}
			wantPwb, wantPfence, wantCAS := PaperOpCounts(eng, nw)
			if got.Pfence != wantPfence {
				t.Errorf("%s Nw=%d: pfence = %.2f, want %.0f", eng, nw, got.Pfence, wantPfence)
			}
			// The wait-free engine pays one DCAS more than the paper's
			// 3+N_w: its exactly-once guard is an explicit tag TM word,
			// where the paper overloads the operation entry's sequence
			// number (see DESIGN.md §6).
			if eng == "OF-WF-PTM" {
				wantCAS++
			}
			if math.Abs(got.CAS-wantCAS) > 0.01 {
				t.Errorf("%s Nw=%d: CAS = %.2f, want %.0f", eng, nw, got.CAS, wantCAS)
			}
			// pwb: 1 (curTx) + Nw (applied words) + ceil((2+2Nw)/8) log
			// lines (+1 result-array line on the wait-free engine);
			// asymptotically the paper's 1+1.25Nw.
			if got.Pwb < wantPwb-0.5 || got.Pwb > wantPwb+3.5 {
				t.Errorf("%s Nw=%d: pwb = %.2f, paper says %.2f", eng, nw, got.Pwb, wantPwb)
			}
		}
	}
	// The rows above measure OF-WF-PTM through UpdatePublished. A lone
	// Update on it publishes nothing: its unpublished round is the
	// lock-free commit, and costs exactly the OF-LF-PTM row.
	for _, nw := range []int{1, 4, 8, 32} {
		lf, err := MeasureOpCountsStride("OF-LF-PTM", nw, 200, pmem.PairLineWords)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := measureOpCounts("OF-WF-PTM", nw, 200, pmem.PairLineWords, false)
		if err != nil {
			t.Fatal(err)
		}
		if wf.Engine = lf.Engine; wf != lf {
			t.Errorf("Nw=%d: a lone OF-WF-PTM Update costs %+v, OF-LF-PTM %+v", nw, wf, lf)
		}
	}
}

// TestTable1CoalescedContiguous pins the flush-coalescing accounting: a
// contiguous N_w-word write-set persists one pwb per modified pair-region
// cache line, so the apply phase pays at most ceil(N_w/4)+1 pwbs (the +1
// for an unaligned first line) instead of the paper's per-word N_w, on top
// of the log lines and the curTx image.
func TestTable1CoalescedContiguous(t *testing.T) {
	for _, nw := range []int{8, 32} {
		got, err := MeasureOpCounts("OF-LF-PTM", nw, 200)
		if err != nil {
			t.Fatal(err)
		}
		logLines := float64((2 + 2*nw + 7) / 8)
		heapLines := float64((nw+pmem.PairLineWords-1)/pmem.PairLineWords + 1)
		max := logLines + 1 + heapLines
		if got.Pwb > max+0.01 {
			t.Errorf("OF-LF-PTM Nw=%d contiguous: pwb = %.2f, coalescing bound is %.0f", nw, got.Pwb, max)
		}
		paperPwb, _, _ := PaperOpCounts("OF-LF-PTM", nw)
		if got.Pwb >= paperPwb {
			t.Errorf("OF-LF-PTM Nw=%d contiguous: pwb = %.2f, not below the per-word %.2f", nw, got.Pwb, paperPwb)
		}
	}
}

// TestTable1BaselineShape checks the qualitative shape of Table I for the
// baselines: PMDK pays Θ(N_w) fences, Romulus pays a constant ≤ 5, OneFile
// pays none.
func TestTable1BaselineShape(t *testing.T) {
	pm, err := MeasureOpCounts("PMDK", 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Pfence < 16 {
		t.Errorf("PMDK pfence = %.2f for Nw=16, expected Θ(N_w)", pm.Pfence)
	}
	if pm.Pwb < 16 {
		t.Errorf("PMDK pwb = %.2f for Nw=16, expected ≥ N_w", pm.Pwb)
	}
	for _, eng := range []string{"RomulusLog", "RomulusLR"} {
		ro, err := MeasureOpCounts(eng, 16, 100)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Pfence > 5 {
			t.Errorf("%s pfence = %.2f, expected ≤ 4-ish constant", eng, ro.Pfence)
		}
		if ro.Pwb < 4 {
			t.Errorf("%s pwb = %.2f for Nw=16, expected ~3+2·N_w/line", eng, ro.Pwb)
		}
	}
}

func TestPaperOpCountsTable(t *testing.T) {
	pwb, pfence, cas := PaperOpCounts("OF-LF-PTM", 4)
	if pwb != 6 || pfence != 0 || cas != 6 {
		t.Fatalf("OF-LF formulas broken: %v %v %v", pwb, pfence, cas)
	}
	if p, _, _ := PaperOpCounts("nope", 1); p != -1 {
		t.Fatal("unknown engine must return -1")
	}
}
