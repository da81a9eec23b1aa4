package core

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// obsVariants builds all four engine variants with a fresh registry-backed
// sink attached.
func obsVariants(t *testing.T) map[string]*Engine {
	t.Helper()
	es := map[string]*Engine{
		"OF-LF": NewLF(smallOpts()...),
		"OF-WF": NewWF(smallOpts()...),
	}
	for name, wf := range map[string]bool{"OF-LF-PTM": false, "OF-WF-PTM": true} {
		dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, smallOpts()...))
		if err != nil {
			t.Fatal(err)
		}
		var e *Engine
		if wf {
			e, err = NewPersistentWF(dev, false, smallOpts()...)
		} else {
			e, err = NewPersistentLF(dev, false, smallOpts()...)
		}
		if err != nil {
			t.Fatal(err)
		}
		es[name] = e
	}
	return es
}

// TestObsNoLossAllVariants is the sample-loss test against the real
// engines: with a sink attached, concurrent transactions on every variant
// record exactly one latency sample per operation — histogram counts equal
// operations issued. Run with -race.
func TestObsNoLossAllVariants(t *testing.T) {
	const (
		workers = 4
		updates = 200
		reads   = 200
		windows = 4
		winSize = 16
	)
	for name, e := range obsVariants(t) {
		t.Run(name, func(t *testing.T) {
			o := e.RegisterMetrics(obs.NewRegistry(), MetricsPrefix(e.Name()))
			if o == nil {
				t.Fatal("RegisterMetrics returned nil sink")
			}
			// Phase A: direct Update/Read only — counts must be exact.
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(base uint64) {
					defer wg.Done()
					p := tm.Ptr(1 + base%64)
					for i := 0; i < updates; i++ {
						e.Update(func(tx tm.Tx) uint64 {
							tx.Store(p, tx.Load(p)+1)
							return 0
						})
					}
					for i := 0; i < reads; i++ {
						e.Read(func(tx tm.Tx) uint64 { return tx.Load(p) })
					}
				}(uint64(w))
			}
			wg.Wait()
			if got := o.UpdateLat.Count(); got != workers*updates {
				t.Errorf("UpdateLat count %d, want %d (samples lost)", got, workers*updates)
			}
			if got := o.ReadLat.Count(); got != workers*reads {
				t.Errorf("ReadLat count %d, want %d (samples lost)", got, workers*reads)
			}
			// Phase B: batch path — every batched op records exactly one
			// call→resolve sample, and the batch-size distribution
			// partitions the ops (its sum equals total ops).
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fns := make([]func(tm.Tx) uint64, winSize)
					for i := range fns {
						p := tm.Ptr(100 + i)
						fns[i] = func(tx tm.Tx) uint64 {
							tx.Store(p, tx.Load(p)+1)
							return 0
						}
					}
					for b := 0; b < windows; b++ {
						for _, r := range e.BatchUpdate(fns) {
							if r.Err != nil {
								t.Errorf("BatchUpdate: %v", r.Err)
							}
						}
					}
				}()
			}
			wg.Wait()
			const batched = workers * windows * winSize
			if got := o.BatchLat.Count(); got != batched {
				t.Errorf("BatchLat count %d, want %d (samples lost)", got, batched)
			}
			if got := o.BatchSize.Snapshot().Sum; got != batched {
				t.Errorf("BatchSize sum %d, want %d (ops missed a combined tx)", got, batched)
			}
			// The flight recorder saw commits.
			var commits int
			for _, ev := range o.Rec.Dump() {
				if ev.Kind == obs.EvCommit {
					commits++
				}
			}
			if commits == 0 {
				t.Error("flight recorder saw no commit events")
			}
			if e.HEViolations() != 0 {
				t.Errorf("hazard-era violations: %d", e.HEViolations())
			}
		})
	}
}

// TestRegisterMetricsReflection asserts the reflection bridge: every field
// of tm.Stats appears as a counter family in the exposition, with the
// commit counter carrying the engine's real value.
func TestRegisterMetricsReflection(t *testing.T) {
	e := NewLF(smallOpts()...)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg, "onefile_of_lf")
	for i := 0; i < 10; i++ {
		e.Update(func(tx tm.Tx) uint64 { tx.Store(1, uint64(i)); return 0 })
	}
	srv := httptest.NewServer(reg.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	st := reflect.TypeOf(tm.Stats{})
	for i := 0; i < st.NumField(); i++ {
		want := "onefile_of_lf_" + snakeCase(st.Field(i).Name) + "_total"
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing family %q for tm.Stats.%s", want, st.Field(i).Name)
		}
	}
	if !strings.Contains(body, "onefile_of_lf_commits_total 10") {
		t.Errorf("/metrics commit counter wrong:\n%s", body)
	}
	for _, want := range []string{
		"onefile_of_lf_parks_total", "onefile_of_lf_parked_waiters",
		"onefile_of_lf_he_violations_total", "onefile_of_lf_curtx_seq",
		"onefile_of_lf_era_staleness_seqs", "onefile_of_lf_update_latency_ns_count 10",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRegisterMetricsNilRegistry pins the no-sink fast path: a nil
// registry attaches nothing.
func TestRegisterMetricsNilRegistry(t *testing.T) {
	e := NewLF(smallOpts()...)
	if o := e.RegisterMetrics(nil, "x"); o != nil {
		t.Fatal("nil registry must return nil sink")
	}
	if e.Obs() != nil {
		t.Fatal("nil registry must not attach a sink")
	}
}

// TestObsDetach verifies SetObs(nil) stops recording.
func TestObsDetach(t *testing.T) {
	e := NewLF(smallOpts()...)
	o := e.RegisterMetrics(obs.NewRegistry(), "detach")
	e.Update(func(tx tm.Tx) uint64 { tx.Store(1, 1); return 0 })
	e.SetObs(nil)
	e.Update(func(tx tm.Tx) uint64 { tx.Store(1, 2); return 0 })
	if got := o.UpdateLat.Count(); got != 1 {
		t.Fatalf("UpdateLat count %d after detach, want 1", got)
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"Commits":      "commits",
		"ReadCommits":  "read_commits",
		"CAS":          "cas",
		"DCAS":         "dcas",
		"Pwb":          "pwb",
		"AggregatedOp": "aggregated_op",
		"BatchedOps":   "batched_ops",
		"HTTPServer":   "http_server",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsPrefix(t *testing.T) {
	if got := MetricsPrefix("OF-LF-PTM"); got != "onefile_of_lf_ptm" {
		t.Fatalf("MetricsPrefix = %q", got)
	}
}
