// Command onefile-bench regenerates the figures and the table of the
// paper's evaluation (§V) and prints each series as an aligned table.
//
// Usage:
//
//	onefile-bench -fig 2 [-threads 1,2,4,8] [-dur 1s]
//	onefile-bench -fig 12 -kill
//	onefile-bench -table 1
//	onefile-bench -latency [-quick]
//	onefile-bench -all [-json BENCH_results.json]
//	onefile-bench -all -quick -json BENCH_results.json
//	onefile-bench -fig 8 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Figures: 2 (SPS), 3 (SPS+alloc), 4 (queues), 5 (list sets), 6 (trees),
// 7 (latency percentiles), 8 (persistent SPS), 9 (persistent lists),
// 10 (persistent trees), 11 (persistent hash), 12 (persistent queues /
// kill test), 13 (oversubscription sweep — not in the paper; workers 1, P,
// 2P, 4P at GOMAXPROCS=P, see -procs), batch (group-commit sweep — SPS and
// pfence/op vs batch window, plus solo-submitter latency parity). Table: 1
// (pwb/pfence/pdrain/CAS per transaction).
//
// -latency runs the observability-layer latency sweep: every OneFile
// variant with a metrics registry attached, reporting engine-side
// begin→commit p50/p99/p999 per execution path (direct update, read-only,
// AsyncUpdate, BatchUpdate op). The percentiles come from
// the engines' own log-bucketed histograms (internal/obs), so they cover
// every operation issued, not a caller-side sample.
//
// -json additionally writes every data point as a machine-readable report
// (internal/bench.Report). -quick shrinks durations and working sets for a
// smoke run (CI uses it to exercise the full matrix in seconds).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"onefile/internal/bench"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

var (
	figFlag     = flag.String("fig", "", "figure to regenerate (2-13, or 'batch')")
	tableFlag   = flag.Int("table", 0, "table number to regenerate (1)")
	allFlag     = flag.Bool("all", false, "run every figure and table")
	latFlag     = flag.Bool("latency", false, "run the observability-layer latency-percentile sweep")
	killFlag    = flag.Bool("kill", false, "with -fig 12: run the kill test instead of the queue throughput")
	threadsFlag = flag.String("threads", "1,2,4,8", "comma-separated thread counts to sweep")
	durFlag     = flag.Duration("dur", 500*time.Millisecond, "measurement duration per data point")
	keysFlag    = flag.Int("keys", 0, "override the working-set size of set benchmarks")
	entriesFlag = flag.Int("entries", 0, "override the SPS array size")
	quickFlag   = flag.Bool("quick", false, "smoke-run preset: -dur 50ms -threads 1,2,4 -keys 256 -entries 8192")
	procsFlag   = flag.Int("procs", runtime.GOMAXPROCS(0), "with -fig 13: GOMAXPROCS to pin while sweeping worker counts 1,P,2P,4P")
	repsFlag    = flag.Int("reps", 3, "with -fig 13: interleaved measurements per point (the median is reported)")
	jsonFlag    = flag.String("json", "", "also write the results as a JSON report to this file")
	kvAddrFlag  = flag.String("kv-addr", "", "with -fig kv: benchmark an externally started onefile-kv at this address instead of an in-process server")
	kvConnsFlag = flag.Int("kv-conns", 4, "with -fig kv: concurrent client connections")
	kvPipeFlag  = flag.Int("kv-pipeline", 16, "with -fig kv: commands in flight per connection")
	kvZipfFlag  = flag.Float64("kv-zipf", 1.1, "with -fig kv: zipfian key-skew exponent (s>1; 0 = uniform)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
)

// The collector mirrors everything header/row print into the JSON report
// (when -json is given). curFigName is the programmatic key of the figure
// being produced; header opens a new figure under it.
var (
	report     *bench.Report
	curFigName string
	curXLabel  string
	curFig     *bench.Figure
	curCols    []string
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "onefile-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *quickFlag {
		if *durFlag == 500*time.Millisecond {
			*durFlag = 50 * time.Millisecond
		}
		if *threadsFlag == "1,2,4,8" {
			*threadsFlag = "1,2,4"
		}
		if *keysFlag == 0 {
			*keysFlag = 256
		}
		if *entriesFlag == 0 {
			*entriesFlag = 8192
		}
	}
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *jsonFlag != "" {
		report = bench.NewReport("onefile-bench")
		report.Duration = durFlag.String()
		report.Threads = threads
		report.Quick = *quickFlag
	}

	err = dispatch(threads)
	if err != nil {
		return err
	}
	if report != nil {
		if err := report.WriteFile(*jsonFlag); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s (%d figures)\n", *jsonFlag, len(report.Figures))
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func dispatch(threads []int) error {
	if *allFlag {
		for fig := 2; fig <= 13; fig++ {
			if err := runFig(fig, threads); err != nil {
				return err
			}
		}
		if err := runBatchFig(); err != nil {
			return err
		}
		if err := runShardsFig(); err != nil {
			return err
		}
		if err := runLatencyObs(); err != nil {
			return err
		}
		return runTable1()
	}
	if *tableFlag == 1 {
		return runTable1()
	}
	if *figFlag == "batch" {
		return runBatchFig()
	}
	if *figFlag == "shards" {
		return runShardsFig()
	}
	if *figFlag == "kv" {
		return runKVFig()
	}
	if *latFlag {
		return runLatencyObs()
	}
	if fig, err := strconv.Atoi(*figFlag); err == nil && fig >= 2 && fig <= 13 {
		return runFig(fig, threads)
	}
	flag.Usage()
	return fmt.Errorf("pass -fig 2..13, -fig batch, -fig kv, -table 1, -latency or -all")
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func opts(heap int) []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(heap),
		tm.WithMaxThreads(64),
		// Large enough for the hash set's biggest one-transaction resize
		// (relinking ~4k nodes plus zeroing the new bucket block).
		tm.WithMaxStores(1 << 15),
	}
}

// figure sets the JSON context for the header/row calls that follow.
func figure(name, xlabel string) {
	curFigName, curXLabel = name, xlabel
}

func header(title string, cols ...string) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("%-14s", "series")
	for _, c := range cols {
		fmt.Printf(" %12s", c)
	}
	fmt.Println()
	curCols = cols
	if report != nil {
		curFig = report.AddFigure(curFigName, title, curXLabel)
	}
}

func row(series string, vals ...float64) { rowf(series, "%12.0f", vals...) }

// rowf is row with a custom cell format, for fractional values.
func rowf(series, format string, vals ...float64) {
	fmt.Printf("%-14s", series)
	for _, v := range vals {
		fmt.Printf(" "+format, v)
	}
	fmt.Println()
	if curFig != nil {
		for i, v := range vals {
			label := ""
			if i < len(curCols) {
				label = curCols[i]
			}
			curFig.Add(series, label, v)
		}
	}
}

func spsEntries(def int) int {
	if *entriesFlag > 0 {
		return *entriesFlag
	}
	return def
}

func runFig(fig int, threads []int) error {
	switch fig {
	case 2, 3:
		alloc := fig == 3
		title := "Fig. 2: SPS (volatile), swaps/s"
		figure("fig2", "swaps_per_tx")
		if alloc {
			title = "Fig. 3: SPS with allocation (volatile), swaps/s"
			figure("fig3", "swaps_per_tx")
		}
		swaps := []int{1, 4, 16, 64, 256}
		for _, th := range threads {
			header(fmt.Sprintf("%s — %d threads", title, th),
				labels("r=", swaps)...)
			for _, eng := range bench.VolatileEngines {
				vals := make([]float64, 0, len(swaps))
				for _, r := range swaps {
					e, err := bench.NewVolatile(eng, opts(1<<20)...)
					if err != nil {
						return err
					}
					vals = append(vals, bench.SPS(e, bench.SPSConfig{
						Entries: spsEntries(1000), SwapsPerTx: r, Threads: th,
						Duration: *durFlag, Alloc: alloc,
					}))
				}
				row(eng, vals...)
			}
		}
	case 4:
		figure("fig4", "threads")
		header("Fig. 4: queues (volatile), enq/deq pairs/s", labels("t=", threads)...)
		for _, eng := range bench.VolatileEngines {
			vals := make([]float64, 0, len(threads))
			for _, th := range threads {
				e, err := bench.NewVolatile(eng, opts(1<<22)...)
				if err != nil {
					return err
				}
				vals = append(vals, bench.QueueBench(bench.NewTMQueue(e),
					bench.QueueConfig{Threads: th, Duration: *durFlag, Prefill: 128}))
			}
			row(eng, vals...)
		}
		for _, hm := range []string{"MSQueue", "WFQueue", "FAAQueue", "LCRQ"} {
			vals := make([]float64, 0, len(threads))
			for _, th := range threads {
				q, err := bench.NewHandmadeQueue(hm, 64)
				if err != nil {
					return err
				}
				vals = append(vals, bench.QueueBench(q,
					bench.QueueConfig{Threads: th, Duration: *durFlag, Prefill: 128}))
			}
			row(hm, vals...)
		}
	case 5, 6:
		kind, keys, hm, title := "list", 1000, "Harris-HE", "Fig. 5: linked-list sets (volatile), ops/s"
		figure("fig5", "threads")
		if fig == 6 {
			kind, keys, hm, title = "tree", 10000, "NataHE", "Fig. 6: tree sets (volatile), ops/s"
			figure("fig6", "threads")
		}
		if *keysFlag > 0 {
			keys = *keysFlag
		}
		return setSweep(title, kind, keys, bench.VolatileEngines, false, hm, threads)
	case 7:
		figure("fig7", "percentile")
		cols := make([]string, len(bench.Percentiles))
		for i, p := range bench.Percentiles {
			cols[i] = fmt.Sprintf("p%v µs", p)
		}
		for _, th := range threads {
			header(fmt.Sprintf("Fig. 7: latency percentiles — %d threads", th), cols...)
			for _, eng := range bench.VolatileEngines {
				e, err := bench.NewVolatile(eng, opts(1<<16)...)
				if err != nil {
					return err
				}
				ps := bench.Latency(e, bench.LatencyConfig{Counters: 64, Threads: th, PerThread: 2000})
				row(eng, ps...)
			}
		}
	case 8:
		figure("fig8", "swaps_per_tx")
		swaps := []int{1, 4, 16, 64, 256}
		for _, th := range threads {
			header(fmt.Sprintf("Fig. 8: persistent SPS — %d threads, swaps/s", th),
				labels("r=", swaps)...)
			for _, eng := range bench.PersistentEngines {
				vals := make([]float64, 0, len(swaps))
				for _, r := range swaps {
					e, _, err := bench.NewPersistent(eng, pmem.StrictMode, 1, opts(1<<21)...)
					if err != nil {
						return err
					}
					vals = append(vals, bench.SPS(e, bench.SPSConfig{
						Entries: spsEntries(1000000), SwapsPerTx: r, Threads: th, Duration: *durFlag,
					}))
				}
				row(eng, vals...)
			}
		}
	case 9:
		figure("fig9", "threads")
		keys := 1000
		if *keysFlag > 0 {
			keys = *keysFlag
		}
		return setSweep("Fig. 9: persistent linked-list sets, ops/s", "list", keys,
			bench.PersistentEngines, true, "", threads)
	case 10:
		figure("fig10", "threads")
		keys := 100000 // the paper fills 10^6; reduce via -keys for quick runs
		if *keysFlag > 0 {
			keys = *keysFlag
		}
		return setSweep("Fig. 10: persistent red-black trees, ops/s", "tree", keys,
			bench.PersistentEngines, true, "", threads)
	case 11:
		figure("fig11", "threads")
		keys := 10000
		if *keysFlag > 0 {
			keys = *keysFlag
		}
		return setSweep("Fig. 11: persistent hash sets, ops/s", "hash", keys,
			bench.PersistentEngines, true, "", threads)
	case 12:
		if *killFlag {
			figure("fig12-kill", "threads")
			header("Fig. 12 (right): two-queue transfer with kills, tx/s", labels("N=", threads)...)
			for _, eng := range bench.PersistentEngines {
				for _, kill := range []bool{false, true} {
					every := time.Duration(0)
					suffix := " no-kill"
					if kill {
						every = 100 * time.Millisecond
						suffix = " kill"
					}
					vals := make([]float64, 0, len(threads))
					for _, th := range threads {
						res, err := bench.KillTest(bench.KillConfig{
							Engine: eng, Workers: th, Items: 1000,
							Duration: *durFlag, KillEvery: every,
						})
						if err != nil {
							return err
						}
						vals = append(vals, res.TxPerSec)
					}
					row(eng+suffix, vals...)
				}
			}
			return nil
		}
		figure("fig12", "threads")
		header("Fig. 12 (left): persistent queues, enq/deq pairs/s", labels("t=", threads)...)
		for _, eng := range bench.PersistentEngines {
			vals := make([]float64, 0, len(threads))
			for _, th := range threads {
				e, _, err := bench.NewPersistent(eng, pmem.StrictMode, 1, opts(1<<21)...)
				if err != nil {
					return err
				}
				vals = append(vals, bench.QueueBench(bench.NewTMQueue(e),
					bench.QueueConfig{Threads: th, Duration: *durFlag, Prefill: 128}))
			}
			row(eng, vals...)
		}
		vals := make([]float64, 0, len(threads))
		for _, th := range threads {
			q, err := bench.NewHandmadeQueue("FHMP", 64)
			if err != nil {
				return err
			}
			vals = append(vals, bench.QueueBench(q,
				bench.QueueConfig{Threads: th, Duration: *durFlag, Prefill: 128}))
		}
		row("FHMP", vals...)
	case 13:
		figure("fig13-oversub", "workers")
		procs := *procsFlag
		workers := bench.OversubWorkers(procs)
		header(fmt.Sprintf("Fig. 13: oversubscription SPS — GOMAXPROCS=%d, swaps/s", procs),
			labels("w=", workers)...)
		for _, eng := range bench.OversubEngines {
			vals, err := bench.OversubSweep(eng, workers, bench.OversubConfig{
				Procs: procs, Entries: spsEntries(8192), SwapsPerTx: 4,
				Duration: *durFlag, Reps: *repsFlag,
			})
			if err != nil {
				return err
			}
			row(eng, vals...)
		}
	}
	return nil
}

// runBatchFig is the group-commit sweep, three regimes against the direct
// per-op baseline: hot-counter increments under 8 submitters (the canonical
// group-commit operation — commit pipeline dominates), random swaps on a
// hot set under 8 submitters (heavier bodies, write-set dedupe still
// collapses the apply pass), and single-submitter swaps on a disjoint set
// (pure commit amortisation, no dedupe). Then pfence/op for the persistent
// engines and the solo-latency parity pair (see internal/bench/batch.go).
func runBatchFig() error {
	windows := bench.BatchWindows
	incCfg := bench.BatchConfig{
		Entries:   4, // four hot counters
		Threads:   8,
		Increment: true,
		Duration:  *durFlag,
		Reps:      *repsFlag,
	}
	hotCfg := bench.BatchConfig{
		Entries:    4, // hot spot: every op collides, dedupe is maximal
		SwapsPerOp: 1,
		Threads:    8,
		Duration:   *durFlag,
		Reps:       *repsFlag,
	}
	cfg := bench.BatchConfig{
		Entries:    spsEntries(1000),
		SwapsPerOp: 1,
		Duration:   *durFlag,
		Reps:       *repsFlag,
	}
	cols := append([]string{"direct"}, labels("B=", windows)...)
	points := map[string][]bench.BatchPoint{}

	figure("batch", "window")
	header("Batch: group-commit, 8 submitters, 4 hot counters, increments/s", cols...)
	for _, eng := range bench.BatchEngines {
		ps, err := bench.BatchSweep(eng, windows, incCfg)
		if err != nil {
			return err
		}
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.SPS
		}
		row(eng, vals...)
	}

	figure("batch-swap", "window")
	header("Batch: group-commit SPS, 8 submitters, 4-word hot set, swaps/s", cols...)
	for _, eng := range bench.BatchEngines {
		ps, err := bench.BatchSweep(eng, windows, hotCfg)
		if err != nil {
			return err
		}
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.SPS
		}
		row(eng, vals...)
	}

	figure("batch-amortize", "window")
	header("Batch: group-commit SPS, single submitter, disjoint set, swaps/s", cols...)
	for _, eng := range bench.BatchEngines {
		ps, err := bench.BatchSweep(eng, windows, cfg)
		if err != nil {
			return err
		}
		points[eng] = ps
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.SPS
		}
		row(eng, vals...)
	}

	figure("batch-pfence", "window")
	header("Batch: ordering fences (pfence+drain) per op, persistent engines", cols...)
	for _, eng := range bench.BatchEngines {
		ps := points[eng]
		if ps[0].FencesPerOp == 0 {
			continue // volatile
		}
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.FencesPerOp
		}
		rowf(eng, "%12.2f", vals...)
	}

	figure("batch-solo", "path")
	header("Batch: solo-submitter latency, ns/op", "direct", "combined")
	iters := 20000
	if *quickFlag {
		iters = 2000
	}
	for _, eng := range bench.BatchEngines {
		d, c, err := bench.BatchSoloLatency(eng, cfg, iters, *repsFlag)
		if err != nil {
			return err
		}
		row(eng, d, c)
	}
	return nil
}

// runKVFig is the network KV-service sweep (-fig kv): every default mix
// over real sockets, one figure per mix with per-op-type throughput and
// submit→reply percentiles. With -kv-addr it measures an externally
// started onefile-kv; otherwise an in-process server over a persistent
// engine on a loopback listener. The per-point duration follows -dur but
// is floored at 2s (a service measurement needs the engine and the
// socket path warmed), except under -quick.
func runKVFig() error {
	cfg := bench.KVConfig{
		Addr:     *kvAddrFlag,
		Conns:    *kvConnsFlag,
		Pipeline: *kvPipeFlag,
		ZipfS:    *kvZipfFlag,
		Duration: *durFlag,
		Keys:     1 << 20,
	}
	if *keysFlag > 0 {
		cfg.Keys = *keysFlag
	}
	if *quickFlag {
		if *keysFlag == 0 || *keysFlag == 256 {
			cfg.Keys = 4096
		}
	} else if cfg.Duration < 2*time.Second {
		cfg.Duration = 2 * time.Second
	}
	where := "in-process server, engine OF-LF-PTM"
	if cfg.Addr != "" {
		where = "external server at " + cfg.Addr
	}
	for _, mix := range bench.KVMixes {
		res, err := bench.KVBench(mix, cfg)
		if err != nil {
			return err
		}
		figure("kv-"+mix.Name, "percentile")
		header(fmt.Sprintf("KV service: %s (%d%%R/%d%%U/%d%%S) — %d conns × %d pipeline, %d keys, zipf %g, %s",
			mix.Name, 100-mix.Update-mix.Scan, mix.Update, mix.Scan,
			cfg.Conns, cfg.Pipeline, cfg.Keys, cfg.ZipfS, where),
			"ops/s", "p50 µs", "p99 µs", "p999 µs")
		for _, op := range []string{"get", "set", "scan"} {
			st, ok := res.PerOp[op]
			if !ok {
				continue
			}
			rowf(op, "%12.1f", st.OpsPerSec, st.P50, st.P99, st.P999)
		}
		rowf("all", "%12.1f", res.Throughput, 0, 0, 0)
	}
	return nil
}

// runShardsFig is the shard-scaling sweep (-fig shards): the partitioned
// store (internal/shard) at 1/2/4/8 shards under disjoint-key and
// 10%-cross-shard mixes, uniform and zipfian. Three views of the same
// runs: wall-clock ops/s, the aggregate commit-stream rate (summed curTx
// advances — one serial stream per shard engine), and the stream
// parallelism (aggregate over busiest stream, which approaches the shard
// count on disjoint keys regardless of host width; on a single-core host
// ops/s stays flat and the parallelism column carries the scaling story —
// see the EXPERIMENTS.md caveat).
func runShardsFig() error {
	counts := bench.ShardCounts
	cfg := bench.ShardSweepConfig{
		Workers:  8,
		Entries:  1024,
		Duration: *durFlag,
		Reps:     *repsFlag,
	}
	if *quickFlag {
		counts = []int{1, 2, 4}
	}
	type key struct{ eng, mix string }
	points := map[key][]bench.ShardPoint{}
	for _, eng := range bench.ShardBenchEngines {
		for _, mix := range bench.ShardMixes {
			ps, err := bench.ShardScalingSweep(eng, mix, counts, cfg)
			if err != nil {
				return err
			}
			points[key{eng, mix.Name}] = ps
		}
	}
	emit := func(figName, title, format string, get func(bench.ShardPoint) float64) {
		figure(figName, "shards")
		header(title, labels("s=", counts)...)
		for _, eng := range bench.ShardBenchEngines {
			for _, mix := range bench.ShardMixes {
				ps := points[key{eng, mix.Name}]
				vals := make([]float64, len(ps))
				for i, p := range ps {
					vals[i] = get(p)
				}
				rowf(eng+"/"+mix.Name, format, vals...)
			}
		}
	}
	emit("shards-throughput", fmt.Sprintf("Shards: store ops/s — %d workers, hash-partitioned", cfg.Workers),
		"%12.0f", func(p bench.ShardPoint) float64 { return p.OpsPerSec })
	emit("shards-streams", "Shards: aggregate commit-stream rate (curTx advances/s)",
		"%12.0f", func(p bench.ShardPoint) float64 { return p.StreamRate })
	emit("shards-parallelism", "Shards: independent commit streams (aggregate/busiest curTx advances)",
		"%12.2f", func(p bench.ShardPoint) float64 { return p.Parallelism })
	return nil
}

func setSweep(title, kind string, keys int, engines []string, persistent bool, handmade string, threads []int) error {
	ratios := []float64{1, 0.5, 0.1, 0.01, 0.001, 0}
	for _, ratio := range ratios {
		header(fmt.Sprintf("%s — update ratio %g%%", title, ratio*100), labels("t=", threads)...)
		for _, eng := range engines {
			vals := make([]float64, 0, len(threads))
			for _, th := range threads {
				var (
					e   tm.Engine
					err error
				)
				if persistent {
					e, _, err = bench.NewPersistent(eng, pmem.StrictMode, 1, opts(1<<22)...)
				} else {
					e, err = bench.NewVolatile(eng, opts(1<<22)...)
				}
				if err != nil {
					return err
				}
				s, err := bench.NewTMSet(e, kind)
				if err != nil {
					return err
				}
				vals = append(vals, bench.SetBench(s, bench.SetConfig{
					Keys: keys, UpdateRatio: ratio, Threads: th, Duration: *durFlag,
				}))
			}
			row(eng, vals...)
		}
		if handmade != "" {
			vals := make([]float64, 0, len(threads))
			for _, th := range threads {
				s, err := bench.NewHandmadeSet(kind, 64)
				if err != nil {
					return err
				}
				vals = append(vals, bench.SetBench(s, bench.SetConfig{
					Keys: keys, UpdateRatio: ratio, Threads: th, Duration: *durFlag,
				}))
			}
			row(handmade, vals...)
		}
	}
	return nil
}

// runLatencyObs is the -latency mode: per-variant, per-path begin→commit
// percentiles from the engines' own histograms (internal/bench.ObsLatency).
func runLatencyObs() error {
	cfg := bench.ObsLatencyConfig{
		Threads: 4, PerThread: 5000, Reads: 5000,
		Async: 2000, Windows: 50, WinSize: 32, Stores: 4,
	}
	if *quickFlag {
		cfg = bench.ObsLatencyConfig{
			Threads: 4, PerThread: 500, Reads: 500,
			Async: 200, Windows: 10, WinSize: 16, Stores: 4,
		}
	}
	figure("latency-obs", "percentile")
	header("Latency: engine-side begin→commit percentiles (obs histograms), ns",
		"p50 ns", "p99 ns", "p999 ns", "count")
	if curFig != nil {
		curFig.YUnit = "ns"
	}
	for _, eng := range []string{"OF-LF", "OF-WF", "OF-LF-PTM", "OF-WF-PTM"} {
		paths, err := bench.ObsLatency(eng, cfg)
		if err != nil {
			return err
		}
		for _, p := range paths {
			row(eng+"/"+p.Path, float64(p.P50), float64(p.P99), float64(p.P999), float64(p.Count))
		}
	}
	return nil
}

func runTable1() error {
	figure("table1", "nw")
	var fig *bench.Figure
	if report != nil {
		fig = report.AddFigure("table1", "Table I: persistence instructions per update transaction", "nw")
	}
	fmt.Println("\n== Table I: persistence instructions per update transaction ==")
	fmt.Printf("%-12s %4s  %18s %18s %8s %18s\n", "engine", "Nw",
		"pwb (got/paper)", "pfence (got/paper)", "pdrain", "CAS (got/paper)")
	iters := 300
	if *quickFlag {
		iters = 50
	}
	for _, eng := range bench.PersistentEngines {
		for _, nw := range []int{1, 4, 16, 64} {
			got, err := bench.MeasureOpCounts(eng, nw, iters)
			if err != nil {
				return err
			}
			pw, pf, cas := bench.PaperOpCounts(eng, nw)
			// pdrain has no paper column: the paper folds these ordering
			// points into "the CAS acts as a fence". It is the whole
			// ordering cost of the OneFile PTMs (their pfence column is 0).
			fmt.Printf("%-12s %4d  %8.2f / %-7.2f %8.2f / %-7.2f %8.2f %8.2f / %-7.2f\n",
				eng, nw, got.Pwb, pw, got.Pfence, pf, got.Pdrain, got.CAS, cas)
			if fig != nil {
				label := fmt.Sprintf("Nw=%d", nw)
				fig.Add(eng+" pwb", label, got.Pwb)
				fig.Add(eng+" pfence", label, got.Pfence)
				fig.Add(eng+" pdrain", label, got.Pdrain)
				fig.Add(eng+" cas", label, got.CAS)
			}
		}
	}
	return nil
}

func labels[T any](prefix string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%s%v", prefix, x)
	}
	return out
}
