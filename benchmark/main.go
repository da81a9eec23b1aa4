// Command benchmark is the repository's one benchmark: four closed-loop
// workloads over the system as a user reaches it (the RESP server over
// loopback TCP, the containers API), each checked reply by reply against
// an exact model, crashed and recovered twenty times, and reported as the
// end-to-end metrics of BENCHMARK.json — or, with -trace 1, as the
// per-layer metrics. See README.md in this directory.
//
//	go -C benchmark run . -workload kv-update -seed 1 -seconds 30
//	go -C benchmark run . -workload kv-update -seed 1 -seconds 30 -trace 1
//	go -C benchmark run . -selfcheck 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	// setupReps creations per run; setup_s is their median.
	setupReps = 5
	// recoverCycles crash/recover cycles per run, half before the measured
	// phase and half after it; recover_s is their first quartile.
	recoverCycles = 20
	// warmUp precedes the measured phase of every run.
	warmUp = 3 * time.Second
)

var workloadNames = []string{"kv-update", "kv-readscan", "kv-disk", "txn-wf"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string        // where kv-disk's device file and the floors' files go
	dirGiven bool          // -dir was passed, not defaulted
	out      string        // where trace.json goes
	warm     time.Duration // warmUp, which only the smoke test shortens
	// floor is the length of one solo floor loop of a traced run: the loops
	// share half of -seconds (see phasePlan).
	floor time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed uint64
	firstFailure      string
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// count moves a load generator's tallies into the outcome.
func (o *outcome) count(attempted, failed *uint64, firstFailure string) {
	o.attempted += *attempted
	o.failed += *failed
	*attempted, *failed = 0, 0
	if o.firstFailure == "" {
		o.firstFailure = firstFailure
	}
}

// liveHeap is the Go heap still reachable after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext2/ext3/ext4", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs",
}

const tmpfsMagic = 0x01021994

// fsType names the filesystem holding dir.
func fsType(dir string) (name string, tmpfs bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("statfs %s: %w", dir, err)
	}
	name, ok := fsNames[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	return name, int64(st.Type) == tmpfsMagic, nil
}

// checkDiskDir makes the directory for device files and refuses a tmpfs
// the caller chose: msync costs nothing there, so kv-disk would not
// measure the file device. When the directory is the default one (inside
// the checkout, whose place the caller may not control) tmpfs is reported
// loudly instead.
func checkDiskDir(opt *options, out *outcome) (string, error) {
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return "", err
	}
	name, tmpfs, err := fsType(opt.dir)
	if err != nil {
		return "", err
	}
	if tmpfs {
		if opt.dirGiven {
			return "", fmt.Errorf("-dir %s is on tmpfs, where msync is free: choose a directory on a disk", opt.dir)
		}
		out.note("WARNING: %s is on tmpfs, where msync is free: these are not disk numbers", opt.dir)
	}
	return name, nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printHeader records where and on what the numbers were taken.
func printHeader(opt *options) {
	host, _ := os.Hostname()
	fmt.Printf("# workload=%s seed=%d seconds=%d warm=%s floor=%s trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.warm, opt.floor, opt.trace)
	fmt.Printf("# host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func runWorkload(opt *options) (out *outcome, err error) {
	// Start from a disk with no write-back pending: what a build or the
	// previous run's trace left dirty would otherwise be written out under
	// kv-disk, the file-device probe and the fence floor.
	syscall.Sync()
	if spec, ok := kvSpecs[opt.workload]; ok {
		out, err = runKV(spec, opt)
	} else if opt.workload == "txn-wf" {
		out, err = runTxn(opt)
	} else {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	if err == nil && opt.trace {
		err = runFloors(opt, out)
	}
	return out, err
}

// report prints every metric by name with its unit and, as the last line,
// the result object. It returns whether the run was correct and complete.
func report(opt *options, out *outcome) bool {
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	ok := out.failed == 0 && out.attempted > 0
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-32s %16.4f %s\n", name, out.metrics[name].Value, out.metrics[name].Unit)
	}
	fmt.Printf("%-32s %16d\n%-32s %16d\n", "attempted", out.attempted, "failed", out.failed)
	if out.firstFailure != "" {
		fmt.Printf("# first failure: %s\n", out.firstFailure)
	}
	final := map[string]metric{}
	for _, d := range want {
		m, have := out.metrics[d.name]
		if !have {
			fmt.Printf("# missing metric %s\n", d.name)
			ok = false
			continue
		}
		final[d.name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ok, out.attempted, out.failed, final})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return ok
}

func parseFlags(args []string) (*options, int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	opt := &options{warm: warmUp}
	fs.StringVar(&opt.workload, "workload", "", "one of kv-update, kv-readscan, kv-disk, txn-wf")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&opt.seconds, "seconds", 30, "length of the measured phase (default: the run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced run and the floor loops")
	fs.StringVar(&opt.out, "out", "out", "directory for trace.json and, by default, device files")
	fs.StringVar(&opt.dir, "dir", "", "directory on a disk for device files (default: -out)")
	selfcheck := fs.Int("selfcheck", 0, "run two interleaved sets of N full runs of every workload and compare their medians")
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	if fs.NArg() > 0 {
		return nil, 0, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opt.seconds < 1 {
		return nil, 0, errors.New("-seconds must be at least 1")
	}
	opt.trace = *trace != 0
	opt.floor = time.Duration(opt.seconds) * time.Second / 2 / floorLoops
	opt.dirGiven = opt.dir != ""
	if !opt.dirGiven {
		opt.dir = opt.out
	}
	return opt, *selfcheck, nil
}

func main() {
	opt, selfcheck, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(2)
	}
	if selfcheck > 0 {
		if err := runSelfcheck(opt, selfcheck); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	printHeader(opt)
	out, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if out == nil {
			os.Exit(1)
		}
		// The run broke part-way: what was counted is still reported.
		out.failed = max(out.failed, 1)
	}
	if !report(opt, out) {
		os.Exit(1)
	}
}
