package main

// Tracing from outside the program under test: decorators around the
// interfaces each layer already exposes (pmem.Device, kvserver.Backend,
// tm.Engine) and spans the load generator records around its own calls.
// Nothing inside internal/ changes.
//
// A span is {name, id, parent, start, end}. Spans of one KV request share
// the request's sequence number: the single connection is served in order,
// so the k-th GET/SET/SCAN the client sends while tracing is on is the
// k-th call the backend decorator sees. Device spans take the backend call
// in progress as their parent; in txn-wf, where several goroutines (and
// their helpers) reach the device at once, they have no parent and only
// their sums are used.
//
// Each kind also keeps a count, a time sum and a histogram, updated
// atomically, so the per-layer numbers cover every span of the traced
// phase even when the bounded span buffer is full. A layer's self time is
// its spans' time minus the time of the spans they caused.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

type spanKind uint8

const (
	spWindow       spanKind = iota // client: one pipeline window, submit → last reply
	spRequest                      // client: one request, submit → its reply
	spBackendAsync                 // kvserver.Backend.Async call
	spBackendRead                  // kvserver.Backend.Read call
	spIndexUpdate                  // transaction body under backend.async
	spIndexRead                    // transaction body under backend.read
	spEngineUpdate                 // tm.Engine.Update/UpdateSmall call (txn-wf)
	spEngineRead                   // tm.Engine.Read call (txn-wf)
	spTxnUpdate                    // transaction body under engine.update (txn-wf)
	spTxnRead                      // transaction body under engine.read (txn-wf)
	spDevFlush                     // pmem.Device.Flush/FlushPair/FlushPairLine
	spDevDrain                     // pmem.Device.Drain
	spDevFence                     // pmem.Device.Fence
	spAsyncWait                    // backend.async: submit → its body first starts
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"window", "request", "backend.async", "backend.read",
	"index.body.update", "index.body.read",
	"engine.update", "engine.read", "txn.body.update", "txn.body.read",
	"dev.flush", "dev.drain", "dev.fence", "async.wait",
}

type span struct {
	kind       spanKind
	id, parent uint64
	start, end int64 // ns since tracer.base
}

// spanID makes ids unique across kinds while keeping the sequence number
// readable: request 17 and backend call 17 differ only in the kind bits.
func spanID(k spanKind, seq uint64) uint64 { return uint64(k)<<48 | seq }

// atomicHist is a hist several goroutines may record into.
type atomicHist struct {
	counts [nBuckets]atomic.Uint32
}

func (h *atomicHist) snapshot() *hist {
	var out hist
	for i := range h.counts {
		c := h.counts[i].Load()
		out.counts[i] = c
		out.n += uint64(c)
	}
	return &out
}

type kindAgg struct {
	count atomic.Uint64
	ns    atomic.Uint64
	lat   atomicHist
	_     [40]byte
}

// maxSpans bounds the span buffer (40 B each: 1 MB; about 3 MB as JSON, so
// that writing it out does not keep the disk busy under the next run).
const maxSpans = 25_000

type tracer struct {
	on   atomic.Bool
	base time.Time

	spans   []span
	next    atomic.Uint64
	dropped atomic.Uint64
	agg     [nSpanKinds]kindAgg

	seq [nSpanKinds]atomic.Uint64
	// cur is the id of the backend call in progress (0 = none): the parent
	// of device and body spans. Exact with one connection.
	cur atomic.Uint64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// enabled is nil-safe: an untraced run has no tracer.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) nextSeq(k spanKind) uint64 { return t.seq[k].Add(1) }

func (t *tracer) add(k spanKind, id, parent uint64, start, end int64) {
	a := &t.agg[k]
	a.count.Add(1)
	a.ns.Add(uint64(end - start))
	a.lat.counts[bucketOf(end-start)].Add(1)
	i := t.next.Add(1) - 1
	if i >= uint64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: k, id: id, parent: parent, start: start, end: end}
}

func (t *tracer) count(k spanKind) uint64  { return t.agg[k].count.Load() }
func (t *tracer) sumNs(k spanKind) float64 { return float64(t.agg[k].ns.Load()) }

// write stores the buffered spans and the per-kind totals as JSON.
func (t *tracer) write(path string) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	type jsonKind struct {
		Count uint64  `json:"count"`
		SumNs float64 `json:"sum_ns"`
		P50Ns float64 `json:"p50_ns"`
	}
	n := min(t.next.Load(), uint64(len(t.spans)))
	out := struct {
		Dropped uint64              `json:"dropped_spans"`
		Kinds   map[string]jsonKind `json:"kinds"`
		Spans   []jsonSpan          `json:"spans"`
	}{Dropped: t.dropped.Load(), Kinds: map[string]jsonKind{}, Spans: make([]jsonSpan, n)}
	for k := spanKind(0); k < nSpanKinds; k++ {
		out.Kinds[spanNames[k]] = jsonKind{t.count(k), t.sumNs(k), t.agg[k].lat.snapshot().quantile(0.5)}
	}
	for i := range out.Spans {
		s := t.spans[i]
		out.Spans[i] = jsonSpan{spanNames[s.kind], s.id, s.parent, s.start, s.end}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tracedDevice decorates a pmem.Device: every write-back and ordering
// point becomes a span. Everything else passes through the embedded device.
type tracedDevice struct {
	pmem.Device
	t *tracer
}

func (d *tracedDevice) span(k spanKind, start int64) {
	d.t.add(k, spanID(k, d.t.nextSeq(k)), d.t.cur.Load(), start, d.t.now())
}

func (d *tracedDevice) Flush(slot, off, n int) {
	if !d.t.on.Load() {
		d.Device.Flush(slot, off, n)
		return
	}
	start := d.t.now()
	d.Device.Flush(slot, off, n)
	d.span(spDevFlush, start)
}

func (d *tracedDevice) FlushPair(slot, idx int, val, seq uint64) {
	if !d.t.on.Load() {
		d.Device.FlushPair(slot, idx, val, seq)
		return
	}
	start := d.t.now()
	d.Device.FlushPair(slot, idx, val, seq)
	d.span(spDevFlush, start)
}

func (d *tracedDevice) FlushPairLine(slot, n int, idx *[pmem.PairLineWords]int, vals, seqs *[pmem.PairLineWords]uint64) {
	if !d.t.on.Load() {
		d.Device.FlushPairLine(slot, n, idx, vals, seqs)
		return
	}
	start := d.t.now()
	d.Device.FlushPairLine(slot, n, idx, vals, seqs)
	d.span(spDevFlush, start)
}

func (d *tracedDevice) Drain(slot int) {
	if !d.t.on.Load() {
		d.Device.Drain(slot)
		return
	}
	start := d.t.now()
	d.Device.Drain(slot)
	d.span(spDevDrain, start)
}

func (d *tracedDevice) Fence(slot int) {
	if !d.t.on.Load() {
		d.Device.Fence(slot)
		return
	}
	start := d.t.now()
	d.Device.Fence(slot)
	d.span(spDevFence, start)
}

// tracedBackend decorates the server's kvserver.Backend: one span per
// Async/Read call, a child span per execution of the transaction body.
type tracedBackend struct {
	kvserver.Backend
	t *tracer
}

func (b *tracedBackend) Async(shard int, fn func(tm.Tx) uint64) *tm.Future {
	if !b.t.on.Load() {
		return b.Backend.Async(shard, fn)
	}
	t := b.t
	seq := t.nextSeq(spRequest) // the k-th backend call serves the k-th request
	id := spanID(spBackendAsync, seq)
	start := t.now()
	t.cur.Store(id)
	var ran atomic.Bool // a body may run again, and on a helper's goroutine
	fut := b.Backend.Async(shard, func(tx tm.Tx) uint64 {
		bodyStart := t.now()
		if ran.CompareAndSwap(false, true) {
			t.add(spAsyncWait, spanID(spAsyncWait, seq), id, start, bodyStart)
		}
		v := fn(tx)
		t.add(spIndexUpdate, spanID(spIndexUpdate, t.nextSeq(spIndexUpdate)), id, bodyStart, t.now())
		return v
	})
	t.cur.Store(0)
	t.add(spBackendAsync, id, spanID(spRequest, seq), start, t.now())
	return fut
}

func (b *tracedBackend) Read(shard int, fn func(tm.Tx) uint64) uint64 {
	if !b.t.on.Load() {
		return b.Backend.Read(shard, fn)
	}
	t := b.t
	seq := t.nextSeq(spRequest)
	id := spanID(spBackendRead, seq)
	start := t.now()
	v := b.Backend.Read(shard, func(tx tm.Tx) uint64 {
		bodyStart := t.now()
		v := fn(tx)
		t.add(spIndexRead, spanID(spIndexRead, t.nextSeq(spIndexRead)), id, bodyStart, t.now())
		return v
	})
	t.add(spBackendRead, id, spanID(spRequest, seq), start, t.now())
	return v
}

// tracedEngine decorates the tm.Engine the containers of txn-wf run on.
// It forwards UpdateSmall so the containers keep probing the fast path
// exactly as they do on the bare engine.
type tracedEngine struct {
	tm.Engine
	small tm.SmallUpdater
	t     *tracer
}

func (e *tracedEngine) body(k spanKind, parent uint64, fn func(tm.Tx) uint64) func(tm.Tx) uint64 {
	t := e.t
	return func(tx tm.Tx) uint64 {
		start := t.now()
		v := fn(tx)
		t.add(k, spanID(k, t.nextSeq(k)), parent, start, t.now())
		return v
	}
}

func (e *tracedEngine) Update(fn func(tm.Tx) uint64) uint64 {
	if !e.t.on.Load() {
		return e.Engine.Update(fn)
	}
	id := spanID(spEngineUpdate, e.t.nextSeq(spEngineUpdate))
	start := e.t.now()
	v := e.Engine.Update(e.body(spTxnUpdate, id, fn))
	e.t.add(spEngineUpdate, id, 0, start, e.t.now())
	return v
}

func (e *tracedEngine) UpdateSmall(fn func(tm.Tx) uint64) (uint64, tm.SmallOutcome) {
	if !e.t.on.Load() {
		return e.small.UpdateSmall(fn)
	}
	id := spanID(spEngineUpdate, e.t.nextSeq(spEngineUpdate))
	start := e.t.now()
	v, out := e.small.UpdateSmall(e.body(spTxnUpdate, id, fn))
	e.t.add(spEngineUpdate, id, 0, start, e.t.now())
	return v, out
}

func (e *tracedEngine) Read(fn func(tm.Tx) uint64) uint64 {
	if !e.t.on.Load() {
		return e.Engine.Read(fn)
	}
	id := spanID(spEngineRead, e.t.nextSeq(spEngineRead))
	start := e.t.now()
	v := e.Engine.Read(e.body(spTxnRead, id, fn))
	e.t.add(spEngineRead, id, 0, start, e.t.now())
	return v
}
