package crashcheck

import (
	"testing"

	"onefile/internal/testutil"
)

// TestCrashMatrixFileDevice re-runs the enumerated crash matrix with every
// device a real mmap-backed file: the same engines, the same workload, the
// same oracle — only the persistence layer changes. Zero violations proves
// the engines' recovery protocol does not secretly depend on the simulator.
func TestCrashMatrixFileDevice(t *testing.T) {
	cfg := Config{
		Seed:         testutil.Seed(t, 1),
		Txns:         6,
		Stride:       1,
		Strict:       true,
		RelaxedSeeds: []int64{1, 2},
		Device:       FileDevices(testutil.TmpfsDir(t), 1),
	}
	if testing.Short() {
		cfg.Txns = 4
		cfg.Stride = 3
		cfg.RelaxedSeeds = nil
	}
	runMatrix(t, cfg)
}
