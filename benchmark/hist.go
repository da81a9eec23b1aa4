package main

// The recorder: fixed log-linear histograms, one per (load goroutine, 1 s
// window, latency class), all allocated before the run. Recording is an
// index computation and an increment — no allocation, no lock, no sharing
// between goroutines — so the recorder cannot perturb what it measures.
//
// A metric is a statistic of the windows, not of the whole run: a stall of
// the shared host lands in some windows and leaves the others alone, where
// a whole-run p99 would carry it entirely. Which statistic, and why, is at
// phasePlan.report.

import (
	"math/bits"
	"sort"
)

const (
	// subBits sub-buckets per power of two: a bucket spans at most 1/32 of
	// its lower bound, so no value reported from it is more than 3.1 % from
	// any sample in it.
	subBits    = 5
	subBuckets = 1 << subBits
	// maxExp caps recorded values at 2^40 ns (18 min); longer ones clamp.
	maxExp   = 40
	nBuckets = (maxExp - subBits + 1) * subBuckets
)

// hist is a log-linear histogram of nanosecond samples. Values below
// subBuckets are exact.
type hist struct {
	counts [nBuckets]uint32
	n      uint64
}

func bucketOf(ns int64) int {
	if ns < subBuckets {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	v := uint64(ns)
	e := bits.Len64(v) - 1
	if e >= maxExp {
		return nBuckets - 1
	}
	sub := (v >> (e - subBits)) & (subBuckets - 1)
	return (e-subBits+1)<<subBits + int(sub)
}

// bucketSpan returns the lowest value of bucket i and the bucket's width.
func bucketSpan(i int) (low, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := i>>subBits + subBits - 1
	w := uint64(1) << (e - subBits)
	return float64(uint64(1)<<e + uint64(i&(subBuckets-1))*w), float64(w)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds, or 0 for an
// empty histogram. Samples are taken as spread evenly over their bucket, so
// the result moves continuously with the ranks instead of jumping from one
// bucket's midpoint to the next.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q*float64(h.n-1) + 1 // 1-based rank of the wanted sample
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := bucketSpan(i)
			return low + width*(rank-seen-0.5)/float64(c)
		}
		seen += float64(c)
	}
	low, width := bucketSpan(nBuckets - 1)
	return low + width/2
}

// Latency classes. A workload reports a class's percentiles from the
// operations of that class alone, so no percentile sits on the boundary
// between two modes of a mixed population.
const (
	classRead = iota
	classWrite
	classScan
	nClasses
)

var classNames = [nClasses]string{"read", "write", "scan"}

// recorder holds one load goroutine's windows.
type recorder struct {
	lat [][nClasses]hist // [window][class]
	ops []uint64         // completed operations per window
}

func newRecorder(windows int) *recorder {
	return &recorder{lat: make([][nClasses]hist, windows), ops: make([]uint64, windows)}
}

// record files one completed operation. sinceStart is the reply time
// relative to the start of the measured phase: negative during warm-up and
// beyond the last window after the phase ends, and then nothing is kept.
func (r *recorder) record(class int, sinceStart, latNs int64) {
	if sinceStart < 0 {
		return
	}
	w := int(sinceStart / 1e9)
	if w >= len(r.ops) {
		return
	}
	r.ops[w]++
	r.lat[w][class].record(latNs)
}

func maxOf(v []float64) (m float64) {
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// firstQuartile is the value a quarter of v lies below.
func firstQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	q1, _, _ := quartiles(v)
	return q1
}

// opsPerWindow sums the recorders' completed operations window by window.
func opsPerWindow(recs []*recorder) []float64 {
	out := make([]float64, len(recs[0].ops))
	for _, r := range recs {
		for w, n := range r.ops {
			out[w] += float64(n)
		}
	}
	return out
}

// windowQuantiles returns one class's q-quantile in every window that
// holds at least minSamples samples of the class: a p99 of fewer than 1,000
// samples is one of its ten largest values and repeats badly. When the
// class is too rare for 1 s windows the windows are widened (2 s, 4 s, ...)
// until at least half of them qualify; the last resort is the whole run as
// one window, whatever it holds. busiest is the index of the value from the
// window in which most operations, of any class, completed; the width used
// and the samples counted are returned as well.
func windowQuantiles(recs []*recorder, class int, q float64, minSamples uint64) (ns []float64, busiest, widthS int, samples uint64) {
	ops := opsPerWindow(recs)
	windows := len(ops)
	for width := 1; ; width *= 2 {
		if width >= windows {
			width, minSamples = windows, 0
		}
		ns, samples = ns[:0], 0
		var mostOps float64
		groups := windows / width
		for g := 0; g < groups; g++ {
			var m hist
			var groupOps float64
			for w := g * width; w < (g+1)*width; w++ {
				groupOps += ops[w]
				for _, r := range recs {
					m.merge(&r.lat[w][class])
				}
			}
			if m.n < minSamples {
				continue
			}
			if groupOps > mostOps {
				mostOps, busiest = groupOps, len(ns)
			}
			ns = append(ns, m.quantile(q))
			samples += m.n
		}
		if 2*len(ns) >= groups || width == windows {
			return ns, busiest, width, samples
		}
	}
}
