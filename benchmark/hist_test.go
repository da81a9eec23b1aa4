package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestBucketHoldsItsSamples(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 4095, 4096, 1e6, 123456789, 1e12} {
		b := bucketOf(v)
		low, width := bucketSpan(b)
		if float64(v) < low || float64(v) >= low+width {
			t.Errorf("value %d filed in bucket %d = [%g, %g)", v, b, low, low+width)
		}
		if width > low/subBuckets && low >= subBuckets {
			t.Errorf("bucket %d: width %g exceeds 1/%d of its lower bound %g", b, width, subBuckets, low)
		}
		if b < prev {
			t.Errorf("bucket index not monotonic at %d", v)
		}
		prev = b
	}
	if b := bucketOf(math.MaxInt64); b != nBuckets-1 {
		t.Errorf("huge value filed in bucket %d, want the last (%d)", b, nBuckets-1)
	}
}

func TestQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		// Log-uniform over 100 ns .. 100 ms: every octave the metrics visit.
		v := int64(100 * math.Pow(1e6, rng.Float64()))
		samples[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q=%g: histogram %g, exact %g: error %.2f %% above 3 %%", q, got, exact, 100*rel)
		}
	}
}

func TestWindowStatistics(t *testing.T) {
	// Two goroutines, nine windows, each busier and slower than the one
	// before (read latency 1 µs × (window + 1)), one of them stalled at 1 s:
	// the stall moves its own window's value, leaves the busiest window (the
	// last, 9 µs) alone and moves the median window by one place (5 µs to
	// 6 µs). The lowest latency, the first window's, is not the metric.
	recs := []*recorder{newRecorder(9), newRecorder(9)}
	for w := 0; w < 9; w++ {
		lat := int64(1000 * (w + 1))
		if w == 4 {
			lat = 1e9
		}
		for i := 0; i < 2000+w; i++ {
			recs[i%2].record(classRead, int64(w)*1e9+int64(i), lat)
		}
	}
	ns, busiest, width, samples := windowQuantiles(recs, classRead, 0.99, 1000)
	if len(ns) != 9 || width != 1 || samples != 9*2000+36 {
		t.Fatalf("%d windows of %d s, %d samples; want 9, 1, 18036", len(ns), width, samples)
	}
	if got := ns[busiest]; math.Abs(got-9000)/9000 > 0.03 {
		t.Errorf("busiest window's p99 = %g ns, want about 9000", got)
	}
	if med := median(ns); math.Abs(med-6000)/6000 > 0.03 {
		t.Errorf("median window's p99 = %g ns, want about 6000", med)
	}
	if got := maxOf(opsPerWindow(recs)); got != 2008 {
		t.Errorf("busiest window's operations = %g, want 2008", got)
	}
	if got := median(opsPerWindow(recs)); got != 2004 {
		t.Errorf("median window's operations = %g, want 2004", got)
	}

	// A rare class: 300 samples a window cannot give a p99, so windows
	// widen to 4 s (1,200 samples each).
	rare := []*recorder{newRecorder(8)}
	for w := 0; w < 8; w++ {
		for i := 0; i < 300; i++ {
			rare[0].record(classScan, int64(w)*1e9, 5000)
		}
	}
	if ns, _, width, samples := windowQuantiles(rare, classScan, 0.99, 1000); len(ns) != 2 || width != 4 || samples != 2400 {
		t.Errorf("rare class: %d windows of %d s, %d samples; want 2, 4, 2400", len(ns), width, samples)
	}
	// A class that never reaches the minimum still reports, from the whole run.
	if ns, busiest, width, _ := windowQuantiles(rare, classScan, 0.5, 1<<20); len(ns) != 1 || busiest != 0 || width != 8 || ns[0] == 0 {
		t.Errorf("whole-run fallback: %v ns over %d s", ns, width)
	}
}

func TestRecorderKeepsOnlyTheMeasuredPhase(t *testing.T) {
	r := newRecorder(2)
	r.record(classWrite, -1, 10)    // warm-up
	r.record(classWrite, 0, 10)     // first window
	r.record(classWrite, 2e9-1, 10) // last window
	r.record(classWrite, 2e9, 10)   // after the end
	if r.ops[0] != 1 || r.ops[1] != 1 {
		t.Errorf("ops per window = %v, want [1 1]", r.ops)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31].
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, %g; want 3.5, 13.5, 31", q1, q2, q3)
	}
}
