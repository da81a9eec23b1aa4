package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload for a second, untraced and traced, and
// asserts that each reports every metric BENCHMARK.json names, in the unit
// it names, from a run without a failed operation.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := wl
			want := f.EndToEnd
			if trace {
				name += "/trace"
				want = f.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				opt := &options{
					workload: wl, seed: 7, seconds: 1, warm: 200 * time.Millisecond, trace: trace,
					dir: dir, out: dir, floor: 50 * time.Millisecond,
				}
				out, err := runWorkload(opt)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Errorf("%d of %d operations failed: %s", out.failed, out.attempted, out.firstFailure)
				}
				for _, m := range want {
					got, ok := out.metrics[m.Name]
					if !ok {
						t.Errorf("metric %s of BENCHMARK.json is not reported", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !report(opt, out) {
					t.Error("report says the run is not correct and complete")
				}
			})
		}
	}
}

// TestMetricTablesMatchBenchmarkFile keeps the benchmark's own tables and
// BENCHMARK.json in step, name by name.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, have []metricDef, want []struct{ Name, Unit string }) {
		if len(have) != len(want) {
			t.Errorf("%s: %d metrics in the benchmark, %d in BENCHMARK.json", kind, len(have), len(want))
			return
		}
		for i := range have {
			if have[i].name != want[i].Name || have[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark has %s (%s), BENCHMARK.json %s (%s)", kind, i, have[i].name, have[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	// kv-disk is run by hand: see README.md for why it carries no bound.
	listed := []string{}
	for _, wl := range f.Workloads {
		listed = append(listed, wl.Name)
	}
	if want := []string{"kv-update", "kv-readscan", "txn-wf"}; !slices.Equal(listed, want) {
		t.Errorf("BENCHMARK.json lists %v, want %v", listed, want)
	}
}
