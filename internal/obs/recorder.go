package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size ring buffer of recent events (transaction
// commits, aborts, helps, parks...), recorded lock-free from
// any goroutine and dumpable on demand. It answers the question post-hoc
// profiling cannot: *what was the engine doing right before things went
// wrong* — e.g. a helping storm shows up as EvHelp and EvAbort events
// crowding out the commits, visible in one dump.
//
// Recording protocol: a writer claims the next global sequence number with
// one atomic add, then writes the event's payload words and finally the
// cell's sequence word. A reader (Dump) reads the sequence, the payload,
// and the sequence again — a changed or zero sequence means the cell was
// concurrently overwritten and is skipped. All cell fields are atomics, so
// the race is benign and -race-clean; a dump can only ever lose events
// that were being overwritten at that instant (they are older than the
// ring's span anyway).

// EventKind identifies a flight-recorder event.
type EventKind uint8

// Event kinds recorded by the engines.
const (
	// EvCommit is a committed update transaction (arg: curTx sequence).
	EvCommit EventKind = iota + 1
	// EvAbort is an aborted update attempt (arg: start sequence).
	EvAbort
	// EvReadAbort is a failed read-only validation (arg: start sequence).
	EvReadAbort
	// EvHelp is an apply phase run on another transaction's behalf
	// (arg: helped txid's sequence).
	EvHelp
	// EvPark is a goroutine parking on the slot wait list (arg: waiters).
	EvPark
	// EvUnpark is a parked goroutine resuming (arg: waiters).
	EvUnpark
)

// String names the kind for dumps.
func (k EventKind) String() string {
	switch k {
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvReadAbort:
		return "read-abort"
	case EvHelp:
		return "help"
	case EvPark:
		return "park"
	case EvUnpark:
		return "unpark"
	}
	return "unknown"
}

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq  uint64    // global event sequence number (1-based, dense)
	Kind EventKind // what happened
	Slot int       // engine slot (or -1)
	Arg  uint64    // kind-dependent payload (tx sequence, batch size, ...)
	Time int64     // unix nanoseconds
}

// recCell is one ring slot. seq is written last by the recording protocol;
// meta packs kind (high 8 bits) and slot+1 (low 16 bits).
type recCell struct {
	seq  atomic.Uint64
	meta atomic.Uint64
	arg  atomic.Uint64
	time atomic.Int64
}

// Recorder is a lock-free fixed-size event ring. All methods are nil-safe;
// a nil *Recorder records nothing.
type Recorder struct {
	head atomic.Uint64
	ring []recCell
}

// NewRecorder creates a recorder keeping the most recent size events
// (rounded up to a power of two, minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{ring: make([]recCell, n)}
}

func packMeta(kind EventKind, slot int) uint64 {
	return uint64(kind)<<16 | uint64(uint16(slot+1))
}

func unpackMeta(m uint64) (EventKind, int) {
	return EventKind(m >> 16), int(uint16(m)) - 1
}

// Record appends one event. Nil-safe, wait-free: one atomic add plus four
// atomic stores.
func (r *Recorder) Record(kind EventKind, slot int, arg uint64) {
	if r == nil {
		return
	}
	seq := r.head.Add(1)
	c := &r.ring[(seq-1)&uint64(len(r.ring)-1)]
	c.seq.Store(0) // invalidate while the payload is torn
	c.meta.Store(packMeta(kind, slot))
	c.arg.Store(arg)
	c.time.Store(time.Now().UnixNano())
	c.seq.Store(seq)
}

// Len returns the total number of events ever recorded. Nil-safe.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Cap returns the ring size (events retained). Nil-safe.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Dump returns the retained events in increasing sequence order (oldest
// first). Cells being concurrently overwritten are skipped; on a quiescent
// recorder the dump is exactly the last min(Len, Cap) events. Nil-safe.
func (r *Recorder) Dump() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	for i := range r.ring {
		c := &r.ring[i]
		s1 := c.seq.Load()
		if s1 == 0 {
			continue
		}
		meta := c.meta.Load()
		arg := c.arg.Load()
		ts := c.time.Load()
		if c.seq.Load() != s1 {
			continue // torn: overwritten while reading
		}
		kind, slot := unpackMeta(meta)
		out = append(out, Event{Seq: s1, Kind: kind, Slot: slot, Arg: arg, Time: ts})
	}
	// Ring order is not sequence order after wraparound; sort by Seq.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
