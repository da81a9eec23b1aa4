package crashcheck

import (
	"fmt"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/testutil"
)

// TestShardedOracle sanity-checks the cross-shard sequential oracle: the
// workload run crash-free on a sharded store must land on the final oracle
// digest, and every prefix digest must be distinct (otherwise a missed
// transaction could hide behind an equal neighbour).
func TestShardedOracle(t *testing.T) {
	p := NewShardedProgram(7, 3, 12)
	seen := map[string]int{}
	for k := 0; k <= p.Len(); k++ {
		if prev, dup := seen[p.StateAfter(k)]; dup {
			t.Fatalf("oracle digests after %d and %d transactions collide", prev, k)
		}
		seen[p.StateAfter(k)] = k
	}
	st, devs, err := sharded{"OF-LF-PTM", p}.start(nil, pmem.StrictMode, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		st.Close()
		closeAll(devs)
	}()
	acked := 0
	if err := p.run(st, func(n int) { acked += n }); err != nil {
		t.Fatal(err)
	}
	if acked != p.Len() {
		t.Fatalf("acked %d of %d transactions", acked, p.Len())
	}
	if got := readShardedState(st); got != p.StateAfter(p.Len()) {
		t.Fatalf("crash-free state mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, p.StateAfter(p.Len()))
	}
}

// TestCrashMatrixSharded is the cross-shard matrix on the simulator: every
// global persistence event of the 2-shard and 3-shard canonical workloads,
// strict and relaxed, with zero tolerated atomicity violations.
func TestCrashMatrixSharded(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{
				Engines:      []string{"OF-LF-PTM"},
				Shards:       shards,
				Txns:         8,
				Seed:         testutil.Seed(t, 1),
				Stride:       1,
				Strict:       true,
				RelaxedSeeds: []int64{1, 2},
			}
			if testing.Short() {
				cfg.Txns = 5
				cfg.Stride = 4
				cfg.RelaxedSeeds = []int64{1}
			}
			runMatrix(t, cfg)
		})
	}
}

// TestCrashMatrixShardedWaitFree sweeps the wait-free engine variant: the
// 2PC path must be engine-flavour agnostic.
func TestCrashMatrixShardedWaitFree(t *testing.T) {
	cfg := Config{
		Engines: []string{"OF-WF-PTM"},
		Shards:  2,
		Txns:    6,
		Seed:    testutil.Seed(t, 2),
		Stride:  1,
		Strict:  true,
	}
	if testing.Short() {
		cfg.Txns = 4
		cfg.Stride = 5
	}
	runMatrix(t, cfg)
}

// TestCrashMatrixShardedFileDevice re-runs the cross-shard matrix with
// every shard device a real mmap-backed file: the 2PC recovery protocol
// must not secretly depend on the simulator.
func TestCrashMatrixShardedFileDevice(t *testing.T) {
	const shards = 2
	cfg := Config{
		Engines: []string{"OF-LF-PTM"},
		Shards:  shards,
		Txns:    6,
		Seed:    testutil.Seed(t, 3),
		Stride:  1,
		Strict:  true,
		Device:  FileDevices(testutil.TmpfsDir(t), shards),
	}
	if testing.Short() {
		cfg.Txns = 4
		cfg.Stride = 5
	}
	runMatrix(t, cfg)
}
