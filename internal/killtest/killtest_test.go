// Package killtest proves whole-process crash recovery on the mmap-backed
// file device: not a simulated crash hook, but a real SIGKILL of a real
// child process mid-commit, a real re-open of the file in a fresh process,
// and real engine recovery — repeated for hundreds of cycles per engine.
//
// The harness re-execs the test binary as the child (TestMain checks an
// environment variable before the test framework parses anything). The
// child opens-or-creates the device file, attaches the engine, verifies the
// recovered state against the commit protocol, reports it on stdout
// ("R <k>"), then commits forever — each transaction stores a counter k at
// root 0 and four values derived from k at roots 1..4, printing "A <k>"
// after each commit returns. The parent SIGKILLs the child at a
// seed-randomized point (after a random number of acks plus a random
// sub-millisecond delay, so kills land inside commits, recovery, even
// format), then spawns the next cycle on the same file.
//
// Invariants across every kill:
//   - the recovered counter k is never below the highest acked k (an
//     acknowledged commit is durable) and at most one past it (only the
//     single in-flight transaction can be ahead);
//   - roots 1..4 always match the derivation from k (transactions are
//     all-or-nothing — a torn commit would leave a stale derived root);
//   - the device file itself stays openable (superblock valid) once the
//     first recovery has succeeded.
//
// What a kill does not keep: a pair-line pwb that was posted and whose slot
// had not yet reached its ordering point. The device model stages those
// (internal/pmem) and merges them into the mapping at the Fence or Drain, so
// they die with the process, where a model that wrote every pwb through left
// them in the page cache. Both are allowed — a pwb promises nothing before
// its ordering point — and no invariant above leans on either: an ack
// follows the last ordering point of its commit.
//
// A failed cycle preserves the device image and logs the onefile-inspect
// command that dissects it.
package killtest

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"onefile/internal/crashcheck"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

const (
	envEngine = "ONEFILE_KILLTEST_ENGINE"
	envPath   = "ONEFILE_KILLTEST_PATH"
	envCycles = "ONEFILE_KILLTEST_CYCLES"
)

// engineOpts must be identical in parent and child: the device file's
// superblock records the region sizes they imply.
func engineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 13),
		tm.WithMaxThreads(4),
		tm.WithMaxStores(1 << 10),
	}
}

// mix derives root i's value from counter k: any torn commit leaves some
// root inconsistent with root 0.
func mix(k uint64, i int) uint64 {
	h := k + uint64(i)*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return h
}

func TestMain(m *testing.M) {
	if os.Getenv(envKV) != "" {
		kvChildMain()
		return
	}
	if os.Getenv(envEngine) != "" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// childMain is the re-exec'd commit loop. Protocol on stdout, one line per
// event: "C <msg>" open/attach failed (legitimate only before the first
// successful recovery), "E <msg>" invariant violation (always fatal),
// "R <k>" recovered and verified, "A <k>" commit k durable.
func childMain() {
	engine := os.Getenv(envEngine)
	path := os.Getenv(envPath)
	def, err := crashcheck.EngineByName(engine)
	if err != nil {
		fmt.Printf("E %v\n", err)
		os.Exit(3)
	}
	cfg := def.DeviceConfig(pmem.StrictMode, 1, engineOpts()...)
	dev, created, err := filedev.OpenOrCreate(path, cfg)
	if err != nil {
		fmt.Printf("C open: %v\n", err)
		os.Exit(2)
	}
	e, err := def.New(dev, !created, engineOpts()...)
	if err != nil {
		fmt.Printf("C attach: %v\n", err)
		os.Exit(2)
	}

	var roots [5]uint64
	e.Read(func(tx tm.Tx) uint64 {
		for i := range roots {
			roots[i] = tx.Load(tm.Root(i))
		}
		return 0
	})
	k := roots[0]
	for i := 1; i < len(roots); i++ {
		want := uint64(0)
		if k > 0 {
			want = mix(k, i)
		}
		if roots[i] != want {
			fmt.Printf("E torn recovery: k=%d root[%d]=%#x want %#x\n", k, i, roots[i], want)
			os.Exit(1)
		}
	}
	fmt.Printf("R %d\n", k)

	for {
		k++
		kc := k
		e.Update(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(0), kc)
			for i := 1; i < len(roots); i++ {
				tx.Store(tm.Root(i), mix(kc, i))
			}
			return 0
		})
		fmt.Printf("A %d\n", k)
	}
}

// cycleResult is what the parent learned from one child lifetime.
type cycleResult struct {
	recovered  bool   // child printed "R"
	recoveredK uint64 // its value
	maxAcked   uint64 // highest "A" line read (0 if none)
	corrupt    string // "C" line, if any
	fatal      string // "E" line, if any
}

// runCycle spawns one child on path, kills it after the seeded point, and
// drains its protocol output. killAfter is the number of acks to wait for
// before killing (the kill lands earlier if the child dies first).
func runCycle(t *testing.T, exe, engine, path string, rng *rand.Rand, killAfter int) cycleResult {
	t.Helper()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envEngine+"="+engine, envPath+"="+path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning child: %v", err)
	}
	// Hard backstop: a hung child must not hang the harness.
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	var res cycleResult
	acks := 0
	killed := false
	kill := func() {
		if !killed {
			// Sub-millisecond jitter lands the SIGKILL inside a commit (or
			// inside recovery when killAfter is 0 and the jitter is small).
			time.Sleep(time.Duration(rng.Intn(800)) * time.Microsecond)
			cmd.Process.Kill()
			killed = true
		}
	}
	if killAfter == 0 {
		kill()
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "R "):
			k, _ := strconv.ParseUint(line[2:], 10, 64)
			res.recovered, res.recoveredK = true, k
		case strings.HasPrefix(line, "A "):
			k, _ := strconv.ParseUint(line[2:], 10, 64)
			res.maxAcked = k
			acks++
			if acks >= killAfter {
				kill()
			}
		case strings.HasPrefix(line, "C "):
			res.corrupt = line[2:]
		case strings.HasPrefix(line, "E "):
			res.fatal = line[2:]
		default:
			t.Logf("child: unexpected line %q", line)
		}
	}
	kill() // child exited or pipe broke before the target
	cmd.Wait()
	if err := sc.Err(); err != nil && err != io.ErrClosedPipe {
		t.Logf("child stdout: %v", err)
	}
	if s := stderr.String(); s != "" {
		t.Logf("child stderr: %s", s)
	}
	return res
}

// preserve copies the device image out of the scratch dir so it survives
// test cleanup, and returns the onefile-inspect command line for it.
func preserve(t *testing.T, path, engine string, cycle int) string {
	t.Helper()
	keep := filepath.Join(os.TempDir(), fmt.Sprintf("onefile-killtest-%s-cycle%d.img", engine, cycle))
	data, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(keep, data, 0o644)
	}
	if err != nil {
		return fmt.Sprintf("(image preserve failed: %v)", err)
	}
	return fmt.Sprintf("post-mortem: go run ./cmd/onefile-inspect -file -engine %s -heap %d -max-threads %d -max-stores %d %s",
		engine, 1<<13, 4, 1<<10, keep)
}

// TestKillRecovery is the whole-process crash soak: every persistent engine,
// many SIGKILL/re-exec cycles on one device file, zero tolerated losses.
// ONEFILE_KILLTEST_CYCLES overrides the per-engine cycle count; -seed /
// ONEFILE_SEED replay the kill schedule.
func TestKillRecovery(t *testing.T) {
	if _, err := filedev.Create(filepath.Join(t.TempDir(), "probe.img"),
		pmem.Config{RawWords: 8, PairWords: 8, MaxSlots: 1}); err != nil {
		t.Skipf("file device unavailable on this platform: %v", err)
	}
	seed := testutil.Seed(t, 1)
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	cycles := 40
	if testing.Short() {
		cycles = 6
	}
	if v := os.Getenv(envCycles); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad %s=%q", envCycles, v)
		}
		cycles = n
	}

	for ei, def := range crashcheck.Engines() {
		def := def
		ei := ei
		t.Run(def.Name, func(t *testing.T) {
			dir := testutil.TmpfsDir(t)
			path := filepath.Join(dir, "kill.img")
			rng := rand.New(rand.NewSource(seed + int64(ei)*1000))
			var maxAcked uint64
			everRecovered := false
			recoveries := 0
			for cycle := 0; cycle < cycles; cycle++ {
				killAfter := rng.Intn(12)
				res := runCycle(t, exe, def.Name, path, rng, killAfter)
				if res.fatal != "" {
					t.Fatalf("cycle %d (killAfter=%d): %s\n  %s",
						cycle, killAfter, res.fatal, preserve(t, path, def.Name, cycle))
				}
				if res.corrupt != "" {
					// A kill can land inside Create/format before the first
					// fence; the file is then legitimately unrecoverable —
					// but only ever before the first successful recovery.
					if everRecovered {
						t.Fatalf("cycle %d: device corrupt after successful recoveries: %s\n  %s",
							cycle, res.corrupt, preserve(t, path, def.Name, cycle))
					}
					t.Logf("cycle %d: kill during format, re-creating (%s)", cycle, res.corrupt)
					os.Remove(path)
					continue
				}
				if res.recovered {
					everRecovered = true
					recoveries++
					if res.recoveredK < maxAcked {
						t.Fatalf("cycle %d: LOST COMMIT: recovered k=%d below acked %d\n  %s",
							cycle, res.recoveredK, maxAcked, preserve(t, path, def.Name, cycle))
					}
					if res.recoveredK > maxAcked+1 {
						t.Fatalf("cycle %d: recovered k=%d is %d ahead of acked %d (only one in-flight txn possible)\n  %s",
							cycle, res.recoveredK, res.recoveredK-maxAcked, maxAcked, preserve(t, path, def.Name, cycle))
					}
					if res.recoveredK > maxAcked {
						maxAcked = res.recoveredK
					}
				}
				if res.maxAcked > maxAcked {
					maxAcked = res.maxAcked
				}
			}
			t.Logf("%s: %d cycles, %d verified recoveries, final acked k=%d", def.Name, cycles, recoveries, maxAcked)
			if recoveries == 0 {
				t.Fatal("no cycle ever recovered; the kill schedule never let a child attach")
			}
		})
	}
}
