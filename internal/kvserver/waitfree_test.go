package kvserver

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

// TestServerWaitFreePromotedReads is the regression test for read bodies
// that outlive their call. With ReadTries=1 a wait-free engine publishes a
// read-only body after its first failed validation, and from then on the
// writers' aggregates execute it on their own goroutines, concurrently with
// each other and possibly after the reader's Read has returned. A body that
// assigns captured variables (what connState.get and scan did) is then a
// data race — a torn slice header waiting to happen; run under -race this
// test reports it. Beyond the race detector, every GET is held to the
// writers' ledger: the version it returns must lie between the last one
// acknowledged before the GET was sent and the last one submitted by the
// time its reply arrived, and every copy of the record inside the value
// must agree.
func TestServerWaitFreePromotedReads(t *testing.T) {
	const (
		writers, readers = 4, 4
		keysPer          = 8
	)
	iters := 400
	if testing.Short() {
		iters = 100
	}
	opts := append(testOpts(), tm.WithReadTries(1))
	engines := map[string]func(t *testing.T) *core.Engine{
		"OF-WF": func(*testing.T) *core.Engine { return core.NewWF(opts...) },
		"OF-WF-PTM": func(t *testing.T) *core.Engine {
			dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.NewPersistentWF(dev, false, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			e := mk(t)
			defer e.Close()
			dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<6)
			defer shutdown()

			// The ledger: per key, the last version submitted and the last
			// one acknowledged. Each key has one writer.
			var sent, acked [writers][keysPer]atomic.Int64
			key := func(w, k int) string { return fmt.Sprintf("w%d-k%d", w, k) }
			// A value repeats its record 1–5 times, so lengths differ from
			// version to version and a header torn between two executions
			// cannot parse clean.
			value := func(w, k int, v int64) string {
				return strings.Repeat(fmt.Sprintf("%d.%d.%d;", w, k, v), 1+int(v%5))
			}
			seed := testutil.Seed(t, 1)
			var wg sync.WaitGroup
			fail := make(chan error, writers+readers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := dial()
					defer c.Close()
					rng := rand.New(rand.NewSource(seed + int64(w)))
					for i := 0; i < iters; i++ {
						k := rng.Intn(keysPer)
						v := sent[w][k].Load() + 1
						sent[w][k].Store(v)
						if r, err := c.Do("SET", key(w, k), value(w, k, v)); err != nil || r.Err() != nil {
							fail <- fmt.Errorf("SET %s: %v %v", key(w, k), err, r.Err())
							return
						}
						acked[w][k].Store(v)
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					c := dial()
					defer c.Close()
					rng := rand.New(rand.NewSource(seed + int64(writers+r)))
					for i := 0; i < iters; i++ {
						if i%16 == 15 {
							// SCAN shares the pattern: every key it returns
							// must be one a writer owns.
							rep, err := c.Do("SCAN", "0", "COUNT", "16")
							if err != nil || rep.Err() != nil || len(rep.Arr) != 2 {
								fail <- fmt.Errorf("SCAN: %v %v", err, rep.Err())
								return
							}
							for _, kv := range rep.Arr[1].Arr {
								var w, k int
								if n, _ := fmt.Sscanf(string(kv.Str), "w%d-k%d", &w, &k); n != 2 || w >= writers || k >= keysPer {
									fail <- fmt.Errorf("SCAN returned a key nobody wrote: %q", kv.Str)
									return
								}
							}
							continue
						}
						w, k := rng.Intn(writers), rng.Intn(keysPer)
						lo := acked[w][k].Load()
						rep, err := c.Do("GET", key(w, k))
						hi := sent[w][k].Load()
						if err != nil || rep.Err() != nil {
							fail <- fmt.Errorf("GET %s: %v %v", key(w, k), err, rep.Err())
							return
						}
						if rep.Null {
							if lo != 0 {
								fail <- fmt.Errorf("GET %s: missing, but version %d was acknowledged", key(w, k), lo)
								return
							}
							continue
						}
						recs := strings.Split(strings.TrimSuffix(string(rep.Str), ";"), ";")
						f := strings.Split(recs[0], ".")
						if len(f) != 3 {
							fail <- fmt.Errorf("GET %s: malformed value %q", key(w, k), rep.Str)
							return
						}
						v, _ := strconv.ParseInt(f[2], 10, 64)
						if string(rep.Str) != value(w, k, v) {
							fail <- fmt.Errorf("GET %s: value %q is not version %d of this key", key(w, k), rep.Str, v)
							return
						}
						if v < lo || v > hi {
							fail <- fmt.Errorf("GET %s: version %d outside the ledger's [%d, %d]", key(w, k), v, lo, hi)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Error(err)
			}
			if st := e.Stats(); st.ReadAborts == 0 {
				t.Logf("no read aborted in this run: the promotion path went unexercised (%+v)", st)
			}
			if v := e.HEViolations(); v != 0 {
				t.Fatalf("hazard-era violations: %d", v)
			}
		})
	}
}
