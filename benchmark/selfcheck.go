package main

// -selfcheck N: is the benchmark steady enough to be a benchmark? Two sets
// of N full runs of every workload, interleaved (A B A B ...) so that both
// sets see the same drift of the host, every run with its own seed. For
// each workload and end-to-end metric it prints both medians, their gap,
// the spread of all the runs and the bound of BENCHMARK.json: a metric is
// usable where its gap and spread are well inside its bound. README.md has
// the table of the host the benchmark was written on.

import (
	"fmt"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v by
// the rule of Python's statistics.quantiles(v, n=4) (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func runSelfcheck(opt *options, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	seed := opt.seed
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, wl := range workloadNames {
				o := *opt
				o.workload, o.seed, o.trace = wl, seed, false
				seed++
				out, err := runWorkload(&o)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, o.seed, err)
				}
				if out.failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed: %s", wl, o.seed, out.failed, out.attempted, out.firstFailure)
				}
				fmt.Printf("# run %d/%d set %c %s seed %d:", i+1, n, 'A'+set, wl, o.seed)
				for _, d := range endToEnd {
					k := key{wl, d.name}
					sets[set][k] = append(sets[set][k], out.metrics[d.name].Value)
					fmt.Printf(" %s=%.4g", d.name, out.metrics[d.name].Value)
				}
				fmt.Println()
			}
		}
	}
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-20s %14s %14s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "gap", "spread", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			a, b := sets[0][key{wl, d.name}], sets[1][key{wl, d.name}]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			q1, q2, q3 := quartiles(append(append([]float64(nil), a...), b...))
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = -gap
			}
			fmt.Printf("%-12s %-20s %14.4f %14.4f %7.2f%% %7.2f%% %7.0f%%\n",
				wl, d.name, ma, mb, 100*gap, 100*(q3-q1)/q2, 100*bounds[d.name])
		}
	}
	return nil
}
