// Command onefile-crashcheck runs the systematic crash-consistency matrix of
// internal/crashcheck: it enumerates every persistence event (pwb / pfence /
// drain) the canonical workload issues on each persistent engine, crashes at
// each one in turn, recovers, and verifies the recovered state against a
// sequential oracle.
//
// Usage:
//
//	onefile-crashcheck                              # all engines, strict + 8 relaxed seeds
//	onefile-crashcheck -engines OF-WF-PTM,PMDK
//	onefile-crashcheck -txns 10 -seed 7 -stride 3
//	onefile-crashcheck -relaxed-seeds 42            # replay one relaxed sweep
//	onefile-crashcheck -strict=false -relaxed-seeds 1,2,3,4
//
// Every violation line carries (engine, mode, device seed, workload seed,
// txns, event index); re-running with those flags replays the exact failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"onefile/internal/crashcheck"
)

var (
	enginesFlag = flag.String("engines", "", "comma-separated engine names (default: all persistent engines)")
	txnsFlag    = flag.Int("txns", 8, "mixed-operation transactions in the canonical workload")
	seedFlag    = flag.Int64("seed", 1, "workload seed")
	strideFlag  = flag.Int("stride", 1, "check every stride-th persistence event (1 = exhaustive)")
	strictFlag  = flag.Bool("strict", true, "sweep StrictMode (write-through) devices")
	relaxedFlag = flag.String("relaxed-seeds", "1,2,3,4,5,6,7,8", "comma-separated RelaxedMode device seeds (empty = skip RelaxedMode)")
	listFlag    = flag.Bool("list", false, "list persistent engine names and exit")
	quietFlag   = flag.Bool("quiet", false, "suppress per-sweep progress lines")
	deviceFlag  = flag.String("device", "sim", "device backend: sim (in-memory simulator) or file (mmap-backed file)")
	fileDirFlag = flag.String("file-dir", "", "scratch directory for -device file (default: /dev/shm if present, else TMPDIR)")
)

func main() {
	flag.Parse()
	if *listFlag {
		for _, d := range crashcheck.Engines() {
			fmt.Println(d.Name)
		}
		return
	}

	cfg := crashcheck.Config{
		Txns:   *txnsFlag,
		Seed:   *seedFlag,
		Stride: *strideFlag,
		Strict: *strictFlag,
	}
	if *enginesFlag != "" {
		cfg.Engines = strings.Split(*enginesFlag, ",")
	}
	for _, s := range strings.Split(*relaxedFlag, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "onefile-crashcheck: bad relaxed seed %q: %v\n", s, err)
			os.Exit(2)
		}
		cfg.RelaxedSeeds = append(cfg.RelaxedSeeds, n)
	}
	if !*quietFlag {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	cleanup := func() {}
	switch *deviceFlag {
	case "sim":
	case "file":
		base := *fileDirFlag
		if base == "" {
			if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
				base = "/dev/shm"
			} else {
				base = os.TempDir()
			}
		}
		dir, err := os.MkdirTemp(base, "onefile-crashcheck-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "onefile-crashcheck: %v\n", err)
			os.Exit(2)
		}
		cleanup = func() { os.RemoveAll(dir) }
		cfg.Device = crashcheck.FileDevices(dir, 1)
	default:
		fmt.Fprintf(os.Stderr, "onefile-crashcheck: unknown -device %q (want sim or file)\n", *deviceFlag)
		os.Exit(2)
	}

	res, err := crashcheck.Run(cfg)
	cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "onefile-crashcheck: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("\n%d crash points exercised (device=%s), %d violations\n", res.Points, *deviceFlag, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
}
