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
// test reports it. Every connection pipelines windows of depth commands, so
// the bodies are whole drains and a late helper execution meets a handler
// that has moved on to its next one: a drain that reused anything its body
// reads would race here. Beyond the race detector, every GET is held to the
// writers' ledger: the version it returns must lie between the last one
// acknowledged before the GET was sent and the last one submitted by the
// time its reply arrived, and every copy of the record inside the value
// must agree.
func TestServerWaitFreePromotedReads(t *testing.T) {
	const (
		writers, readers = 4, 4
		keysPer          = 8
		depth            = 16 // commands per window: one drain, one body
	)
	rounds := 60
	if testing.Short() {
		rounds = 15
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
					var ks [depth]int
					var vs [depth]int64
					for i := 0; i < rounds; i++ {
						for j := range ks {
							k := rng.Intn(keysPer)
							v := sent[w][k].Load() + 1
							sent[w][k].Store(v)
							ks[j], vs[j] = k, v
							c.SendStr("SET", key(w, k), value(w, k, v))
						}
						if err := c.Flush(); err != nil {
							fail <- fmt.Errorf("writer %d: %v", w, err)
							return
						}
						for j, k := range ks {
							if r, err := c.Recv(); err != nil || r.Err() != nil {
								fail <- fmt.Errorf("SET %s: %v %v", key(w, k), err, r.Err())
								return
							}
							acked[w][k].Store(vs[j])
						}
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
					var ws, ks [depth]int
					var los [depth]int64
					for i := 0; i < rounds; i++ {
						// One window: a SCAN, then GETs. Each GET notes what
						// was acknowledged before it was sent.
						c.SendStr("SCAN", "0", "COUNT", "16")
						for j := 1; j < depth; j++ {
							ws[j], ks[j] = rng.Intn(writers), rng.Intn(keysPer)
							los[j] = acked[ws[j]][ks[j]].Load()
							c.SendStr("GET", key(ws[j], ks[j]))
						}
						if err := c.Flush(); err != nil {
							fail <- fmt.Errorf("reader %d: %v", r, err)
							return
						}
						// SCAN shares the pattern: every key it returns must
						// be one a writer owns.
						rep, err := c.Recv()
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
						for j := 1; j < depth; j++ {
							w, k, lo := ws[j], ks[j], los[j]
							rep, err := c.Recv()
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
		})
	}
}
