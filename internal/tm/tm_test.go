package tm

import "testing"

func TestRootSlots(t *testing.T) {
	if Root(0) != RootBase {
		t.Fatalf("Root(0) = %d", Root(0))
	}
	if Root(NumRoots-1) != RootBase+NumRoots-1 {
		t.Fatal("last root slot misplaced")
	}
}

func TestRootOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, NumRoots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Root(%d) did not panic", i)
				}
			}()
			Root(i)
		}()
	}
}

func TestDefaultsAndOptions(t *testing.T) {
	c := Apply(nil)
	d := DefaultConfig()
	if c != d {
		t.Fatalf("Apply(nil) = %+v, want defaults %+v", c, d)
	}
	c = Apply([]Option{
		WithHeapWords(1 << 12),
		WithMaxThreads(4),
		WithMaxStores(64),
		WithReadTries(2),
	})
	if c.HeapWords != 1<<12 || c.MaxThreads != 4 || c.MaxStores != 64 || c.ReadTries != 2 {
		t.Fatalf("options not applied: %+v", c)
	}
}

func TestApplyValidates(t *testing.T) {
	cases := map[string][]Option{
		"tiny heap":    {WithHeapWords(10)},
		"zero threads": {WithMaxThreads(0)},
		"huge threads": {WithMaxThreads(2048)},
		"zero stores":  {WithMaxStores(0)},
		"zero tries":   {WithReadTries(0)},
	}
	for name, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Apply did not panic", name)
				}
			}()
			Apply(opts)
		}()
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Commits: 10, Aborts: 5, ReadCommits: 7, Pwb: 100, Pfence: 3, CAS: 20, DCAS: 30, Helps: 2, ReadAborts: 1, AggregatedOp: 4}
	b := Stats{Commits: 4, Aborts: 2, ReadCommits: 3, Pwb: 50, Pfence: 1, CAS: 10, DCAS: 15, Helps: 1, AggregatedOp: 2}
	d := a.Sub(b)
	if d.Commits != 6 || d.Aborts != 3 || d.ReadCommits != 4 || d.Pwb != 50 ||
		d.Pfence != 2 || d.CAS != 10 || d.DCAS != 15 || d.Helps != 1 ||
		d.ReadAborts != 1 || d.AggregatedOp != 2 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

// TestCollectSelectsTheCountedExecution: the value returned is the one from
// the execution whose index the runner returned — not the first, not the
// last — including when an execution finishes after the runner has decided.
func TestCollectSelectsTheCountedExecution(t *testing.T) {
	calls := 0
	late := make(chan struct{})
	got := Collect(func(body func(Tx) uint64) uint64 {
		body(nil)        // an aborted attempt
		win := body(nil) // the one that commits
		go func() {      // a helper still running the body afterwards
			body(nil)
			close(late)
		}()
		return win
	}, func(Tx) []int {
		calls++
		return []int{calls}
	})
	<-late
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Collect returned %v, want the second execution's [2]", got)
	}
}

// TestCollectFailedRun: a runner that reports a failed transaction by value
// — a future's Wait — may return a scalar that selects no execution, none
// having completed: Collect returns the zero value and does not index.
func TestCollectFailedRun(t *testing.T) {
	got := Collect(func(body func(Tx) uint64) uint64 {
		func() {
			defer func() { recover() }() // the engine delivers the panic as the future's error
			body(nil)
		}()
		return 0
	}, func(Tx) []int { panic(ErrTooManyStores) })
	if got != nil {
		t.Fatalf("Collect of a run with no completed execution returned %v, want nil", got)
	}
	got = Collect(func(body func(Tx) uint64) uint64 {
		body(nil)
		return 7 // not an execution's index
	}, func(Tx) []int { return []int{1} })
	if got != nil {
		t.Fatalf("Collect with no execution selected returned %v, want nil", got)
	}
}
