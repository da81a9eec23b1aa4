package crashcheck

import (
	"strings"
	"testing"

	"onefile/containers"
	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
)

// runMatrix runs cfg and fails t on an error, on any violation, or when the
// matrix exercised no crash point.
func runMatrix(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("%d crash points, %d violations", res.Points, len(res.Violations))
	if res.Points == 0 {
		t.Fatal("matrix exercised no crash points")
	}
}

// TestCrashMatrix is the acceptance sweep: crash at every persistence event
// of the canonical workload, for every persistent engine, in StrictMode and
// (full mode) across eight RelaxedMode device seeds, and demand zero
// violations. -short bounds the run for CI's race build: a smaller program,
// and the relaxed sweep left to a strided test (StrictMode stays
// exhaustive — it is the cheap half and the paper's core claim).
func TestCrashMatrix(t *testing.T) {
	cfg := Config{
		Seed:         testutil.Seed(t, 1),
		Txns:         6,
		Stride:       1,
		Strict:       true,
		RelaxedSeeds: []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	if testing.Short() {
		cfg.Txns = 4
		cfg.RelaxedSeeds = nil // strided relaxed sweep lives in its own test
	}
	runMatrix(t, cfg)
}

// TestCrashMatrixRelaxedStride keeps a strided RelaxedMode sweep in the
// -short tier so the buffered-flush drop path is exercised under the race
// detector too, at a bounded cost.
func TestCrashMatrixRelaxedStride(t *testing.T) {
	if !testing.Short() {
		t.Skip("covered exhaustively by TestCrashMatrix in full mode")
	}
	runMatrix(t, Config{
		Seed:         testutil.Seed(t, 1),
		Txns:         4,
		Stride:       5,
		RelaxedSeeds: []int64{11, 12, 13},
	})
}

// TestCrashMatrixCombined is the batch-atomicity sweep (satellite of the
// group-commit layer): workload transactions are run as batches, each one
// engine transaction, and a crash at every persistence
// event must recover to a state before or after each whole chunk — never an
// intermediate prefix (a torn batch). StrictMode, both OneFile PTMs.
func TestCrashMatrixCombined(t *testing.T) {
	cfg := Config{
		Seed:   testutil.Seed(t, 1),
		Txns:   8,
		Batch:  4,
		Stride: 1,
		Strict: true,
	}
	if testing.Short() {
		cfg.Txns = 5
	}
	runMatrix(t, cfg)
}

// TestProgramSplitsTheHashSet: the programs of the single-engine and
// combined matrices, full and -short, grow their hash set by at least one
// bucket split, so those matrices crash inside a split's transaction too.
func TestProgramSplitsTheHashSet(t *testing.T) {
	fresh := containers.NewHashSet(core.NewLF(engineOpts()...), slotSet).Buckets()
	for _, txns := range []int{6, 8} {
		e := core.NewLF(engineOpts()...)
		if err := NewProgram(testutil.Seed(t, 1), txns).run(e, 1, func(int) {}); err != nil {
			t.Fatal(err)
		}
		if got := containers.NewHashSet(e, slotSet).Buckets(); got <= fresh {
			t.Errorf("txns=%d: the program leaves %d buckets, as many as a new set: no split", txns, got)
		}
	}
}

// TestProgramSplitsTheTreeMap: the programs of the full single-engine and
// combined matrices leave their tree map at least two levels deep, so those
// matrices crash inside a leaf split's transaction and in operations that
// descend through an inner node.
func TestProgramSplitsTheTreeMap(t *testing.T) {
	for _, txns := range []int{6, 8} {
		e := core.NewLF(engineOpts()...)
		if err := NewProgram(testutil.Seed(t, 1), txns).run(e, 1, func(int) {}); err != nil {
			t.Fatal(err)
		}
		if h := containers.NewTreeMap(e, slotMap).Height(); h < 2 {
			t.Errorf("txns=%d: the program leaves a tree map of height %d: no split", txns, h)
		}
	}
}

// TestRunRejectsConfig: a configuration the driver does not admit is an
// error before any point runs — not a silent per-op fallback, and not a
// partial sweep of the engines listed before the offending one.
func TestRunRejectsConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"batch=4,PMDK", Config{Batch: 4, Engines: []string{"PMDK"}}},
		{"batch=4,OF-LF-PTM+PMDK", Config{Batch: 4, Engines: []string{"OF-LF-PTM", "PMDK"}}},
		{"shards=2,batch=4", Config{Shards: 2, Batch: 4}},
		{"shards=2,RomulusLog", Config{Shards: 2, Engines: []string{"RomulusLog"}}},
		{"shards=3,OF-WF-PTM+PMDK", Config{Shards: 3, Engines: []string{"OF-WF-PTM", "PMDK"}}},
		{"unknown engine", Config{Engines: []string{"OF-LF-PTM", "NoSuchPTM"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Txns, cfg.Strict = 3, true
			cfg.Device = func(c pmem.Config) (pmem.Device, error) {
				t.Error("a rejected configuration opened a device")
				return pmem.New(c)
			}
			cfg.Logf = func(format string, args ...any) {
				t.Errorf("a rejected configuration ran: "+format, args...)
			}
			res, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted the configuration: %+v", res)
			}
			t.Log(err)
		})
	}
}

// TestViolationNamesWorkload: a violation line carries every value the
// workload depends on, so replaying it with the printed values runs the
// same points.
func TestViolationNamesWorkload(t *testing.T) {
	v := Violation{Engine: "OF-WF-PTM", Mode: pmem.StrictMode, DevSeed: 3, Seed: 7,
		Txns: 8, Batch: 4, Shards: 2, Event: 19, Detail: "boom"}
	for _, want := range []string{"OF-WF-PTM", "devseed=3", "wlseed=7", "txns=8", "batch=4", "shards=2", "event=19", "boom"} {
		if !strings.Contains(v.String(), want) {
			t.Errorf("%q does not name %s", v, want)
		}
	}
}

// TestCheckOracle exercises the oracle check on both sides of its window.
// No passing matrix reaches the torn branch, so it is driven here with
// digests straight from a program: every prefix strictly inside an
// in-flight chunk is a TORN BATCH, both ends of the chunk pass, and any
// state outside [acked, acked+inflight] diverges.
func TestCheckOracle(t *testing.T) {
	p := NewProgram(1, 8)
	seen := map[string]int{}
	for k := 0; k <= p.Len(); k++ {
		if prev, dup := seen[p.StateAfter(k)]; dup {
			t.Fatalf("oracle digests after %d and %d transactions collide", prev, k)
		}
		seen[p.StateAfter(k)] = k
	}

	const acked, inflight = 4, 4 // chunk [5,8]
	for k := 0; k <= p.Len(); k++ {
		err := checkOracle(p, p.StateAfter(k), acked, inflight)
		switch {
		case k == acked || k == acked+inflight:
			if err != nil {
				t.Errorf("k=%d: an end of the chunk was refused: %v", k, err)
			}
		case k > acked && k < acked+inflight:
			if err == nil || !strings.HasPrefix(err.Error(), "TORN BATCH") {
				t.Errorf("k=%d: intermediate prefix gave %v, want TORN BATCH", k, err)
			}
		default:
			if err == nil || !strings.HasPrefix(err.Error(), "oracle divergence") {
				t.Errorf("k=%d: state outside the window gave %v, want divergence", k, err)
			}
		}
	}
	if err := checkOracle(p, "not a digest", acked, inflight); err == nil || !strings.HasPrefix(err.Error(), "oracle divergence") {
		t.Errorf("a foreign state gave %v, want divergence", err)
	}
	// One transaction in flight: the window is {acked, acked+1}, and a crash
	// after the last transaction has nothing in flight to recover to.
	if err := checkOracle(p, p.StateAfter(acked+2), acked, 1); err == nil || strings.HasPrefix(err.Error(), "TORN") {
		t.Errorf("two past a solo transaction gave %v, want divergence", err)
	}
	if err := checkOracle(p, p.StateAfter(p.Len()), p.Len(), 1); err != nil {
		t.Errorf("the final state after every ack was refused: %v", err)
	}
}
