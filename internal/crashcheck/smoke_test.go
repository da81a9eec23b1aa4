package crashcheck

import (
	"fmt"
	"testing"

	"onefile/internal/pmem"
)

// TestEnumerateDeterministic proves the crash-point space of every scenario
// is well-defined: two enumerations of the same program count the same
// events, or point indices would not name unique crash sites. Each scenario
// runs the program of its matrix test.
func TestEnumerateDeterministic(t *testing.T) {
	var cfgs []Config
	for _, def := range Engines() {
		cfgs = append(cfgs, Config{Engines: []string{def.Name}, Seed: 1, Txns: 6})
	}
	for _, name := range oneFile {
		cfgs = append(cfgs,
			Config{Engines: []string{name}, Seed: 1, Txns: 8, Batch: 4},
			Config{Engines: []string{name}, Seed: 3, Txns: 6, Shards: 2})
	}
	for _, cfg := range cfgs {
		name := cfg.Engines[0]
		if cfg.Batch > 1 {
			name += fmt.Sprintf(",batch=%d", cfg.Batch)
		}
		if cfg.Shards > 1 {
			name += fmt.Sprintf(",shards=%d", cfg.Shards)
		}
		t.Run(name, func(t *testing.T) {
			def, err := EngineByName(cfg.Engines[0])
			if err != nil {
				t.Fatal(err)
			}
			sc, err := newScenario(cfg, def)
			if err != nil {
				t.Fatal(err)
			}
			var counts [2]int
			for i := range counts {
				tr, err := runPoint(sc, nil, sweep{pmem.StrictMode, 1}, 0)
				if err != nil || tr.crashed {
					t.Fatalf("counting run: crashed=%v, %v", tr.crashed, err)
				}
				counts[i] = tr.events
			}
			if counts[0] != counts[1] {
				t.Fatalf("event count not deterministic: %d vs %d", counts[0], counts[1])
			}
			if counts[0] == 0 {
				t.Fatal("workload issued no persistence events")
			}
			t.Logf("%s: %d events", sc.name(), counts[0])
		})
	}
}
