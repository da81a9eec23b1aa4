package killtest

// KV service crash soak: the whole-process SIGKILL harness pointed at the
// network service instead of a bare engine loop. The child is a miniature
// onefile-kv — a kvserver.Server over a file-backed persistent engine —
// and the parent is a real RESP client on a real TCP socket: it pipelines
// SETs and INCRs, records exactly which replies arrived (the service acks
// only after the durable commit), SIGKILLs the child mid-load, restarts it
// on the same device file, and asserts over the socket that no
// acknowledged write was lost.
//
// Invariants, cumulative across every kill/restart cycle:
//   - the INCR counter recovers to at least the highest acknowledged
//     count and at most the number of INCRs ever sent (unacked in-flight
//     commands may or may not have committed — nothing else may);
//   - every SET key recovers to a value between its last acknowledged
//     and its last sent sequence number (values are monotone per key);
//   - the device file stays attachable once the first recovery succeeded.

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"onefile/internal/crashcheck"
	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

const envKV = "ONEFILE_KILLTEST_KV"

// kvEngineOpts must be identical across the child's incarnations: the
// superblock records the region sizes they imply.
func kvEngineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 16),
		tm.WithMaxThreads(16),
		tm.WithMaxStores(1 << 10),
	}
}

const kvSoakKeys = 64 // distinct SET keys; small so overwrites dominate

// kvChildMain is the re-exec'd service: open-or-create the device file,
// attach the engine named by envEngine, serve RESP on an ephemeral
// loopback port, and print "L <addr>" once accepting. It never exits
// cleanly — the parent SIGKILLs it.
func kvChildMain() {
	engine := os.Getenv(envEngine)
	path := os.Getenv(envPath)
	def, err := crashcheck.EngineByName(engine)
	if err != nil {
		fmt.Printf("E %v\n", err)
		os.Exit(3)
	}
	opts := kvEngineOpts()
	cfg := def.DeviceConfig(pmem.StrictMode, 1, opts...)
	dev, created, err := filedev.OpenOrCreate(path, cfg)
	if err != nil {
		fmt.Printf("C open: %v\n", err)
		os.Exit(2)
	}
	e, err := def.New(dev, !created, opts...)
	if err != nil {
		fmt.Printf("C attach: %v\n", err)
		os.Exit(2)
	}
	srv := kvserver.NewServer(kvserver.EngineBackend{E: e}, kvserver.NewIndex(1<<10), nil)
	if err := srv.Init(); err != nil {
		fmt.Printf("E init: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("E listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("L %s\n", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		fmt.Printf("E serve: %v\n", err)
		os.Exit(1)
	}
}

// kvSoakState is the parent's cumulative ledger of what the service ever
// acknowledged and what is merely in flight.
type kvSoakState struct {
	ackedIncr uint64 // highest INCR reply observed
	sentIncr  uint64 // INCRs ever written to a socket
	ackedSet  [kvSoakKeys]uint64
	sentSet   [kvSoakKeys]uint64
	seq       uint64 // global value sequence for SETs
}

func kvSoakKey(i int) string { return fmt.Sprintf("s%02d", i) }

// kvSpawn starts one service child and returns the process and its
// address ("" with corrupt set when the device didn't open — legitimate
// only before the first successful attach).
func kvSpawn(t *testing.T, exe, engine, path string) (cmd *exec.Cmd, addr, corrupt string) {
	t.Helper()
	cmd = exec.Command(exe)
	cmd.Env = append(os.Environ(), envKV+"=1", envEngine+"="+engine, envPath+"="+path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning service child: %v", err)
	}
	lineCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 128)
		one := make([]byte, 1)
		for {
			n, err := out.Read(one)
			if n > 0 {
				if one[0] == '\n' {
					lineCh <- string(buf)
					return
				}
				buf = append(buf, one[0])
			}
			if err != nil {
				lineCh <- string(buf)
				return
			}
		}
	}()
	var line string
	select {
	case line = <-lineCh:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("service child produced no ready line (stderr: %s)", stderr.String())
	}
	switch {
	case strings.HasPrefix(line, "L "):
		return cmd, line[2:], ""
	case strings.HasPrefix(line, "C "):
		cmd.Wait()
		return cmd, "", line[2:]
	default:
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("service child: %q (stderr: %s)", line, stderr.String())
		return nil, "", ""
	}
}

// kvVerify checks the recovered state over the socket against the ledger.
func kvVerify(t *testing.T, c *kvserver.Client, st *kvSoakState, cycle int) {
	t.Helper()
	v, err := c.Do("GET", "counter")
	if err != nil {
		t.Fatalf("cycle %d: GET counter: %v", cycle, err)
	}
	var got uint64
	if !v.Null {
		got, err = strconv.ParseUint(string(v.Str), 10, 64)
		if err != nil {
			t.Fatalf("cycle %d: counter = %q", cycle, v.Str)
		}
	}
	if got < st.ackedIncr {
		t.Fatalf("cycle %d: LOST ACKED INCR: recovered counter %d below acked %d", cycle, got, st.ackedIncr)
	}
	if got > st.sentIncr {
		t.Fatalf("cycle %d: counter %d beyond the %d INCRs ever sent", cycle, got, st.sentIncr)
	}
	st.ackedIncr = got // recovered state is durable: ratchet forward
	for i := 0; i < kvSoakKeys; i++ {
		if st.sentSet[i] == 0 {
			continue
		}
		v, err := c.Do("GET", kvSoakKey(i))
		if err != nil {
			t.Fatalf("cycle %d: GET %s: %v", cycle, kvSoakKey(i), err)
		}
		var val uint64
		if !v.Null {
			val, err = strconv.ParseUint(string(v.Str), 10, 64)
			if err != nil {
				t.Fatalf("cycle %d: %s = %q", cycle, kvSoakKey(i), v.Str)
			}
		}
		if val < st.ackedSet[i] {
			t.Fatalf("cycle %d: LOST ACKED SET: %s recovered to %d below acked %d",
				cycle, kvSoakKey(i), val, st.ackedSet[i])
		}
		if val > st.sentSet[i] {
			t.Fatalf("cycle %d: %s = %d beyond last sent %d", cycle, kvSoakKey(i), val, st.sentSet[i])
		}
		st.ackedSet[i] = val
	}
}

// kvDrive pipelines load at the service until the kill target is reached,
// recording per-reply acknowledgements. Returns once the socket dies
// (child killed) or the target plus a margin was acked.
func kvDrive(t *testing.T, c *kvserver.Client, st *kvSoakState, rng *rand.Rand, killAfter int, kill func()) {
	t.Helper()
	type sent struct {
		incr bool
		key  int
		val  uint64
	}
	var window []sent
	acks := 0
	killed := false
	c.SetDeadline(time.Now().Add(20 * time.Second))
	for round := 0; round < 400 && !killed; round++ {
		window = window[:0]
		for len(window) < 8 {
			if rng.Intn(2) == 0 {
				st.sentIncr++
				c.SendStr("INCR", "counter")
				window = append(window, sent{incr: true})
			} else {
				k := rng.Intn(kvSoakKeys)
				st.seq++
				st.sentSet[k] = st.seq
				c.SendStr("SET", kvSoakKey(k), strconv.FormatUint(st.seq, 10))
				window = append(window, sent{key: k, val: st.seq})
			}
		}
		if err := c.Flush(); err != nil {
			return // socket died under the kill — expected
		}
		for _, s := range window {
			v, err := c.Recv()
			if err != nil {
				return
			}
			if err := v.Err(); err != nil {
				t.Fatalf("service error reply: %v", err)
			}
			// Replies arrive in submission order: this reply acks s.
			if s.incr {
				if v.Int > 0 && uint64(v.Int) > st.ackedIncr {
					st.ackedIncr = uint64(v.Int)
				}
			} else if s.val > st.ackedSet[s.key] {
				st.ackedSet[s.key] = s.val
			}
			acks++
			if acks == killAfter && !killed {
				kill()
				killed = true
			}
		}
	}
	if !killed {
		kill()
	}
}

// TestKVServiceKillRecovery is the network-service crash soak: SIGKILL the
// service mid-load over real sockets, restart it on the same device file,
// and require zero lost acknowledged writes — the end-to-end form of the
// service's ack-after-durable-commit contract.
func TestKVServiceKillRecovery(t *testing.T) {
	if _, err := filedev.Create(filepath.Join(t.TempDir(), "probe.img"),
		pmem.Config{RawWords: 8, PairWords: 8, MaxSlots: 1}); err != nil {
		t.Skipf("file device unavailable on this platform: %v", err)
	}
	seed := testutil.Seed(t, 1)
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	cycles := 10
	if testing.Short() {
		cycles = 3
	}
	if v := os.Getenv(envCycles); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad %s=%q", envCycles, v)
		}
		cycles = n
	}

	for ei, engine := range []string{"OF-LF-PTM", "OF-WF-PTM"} {
		engine := engine
		ei := ei
		t.Run(engine, func(t *testing.T) {
			dir := testutil.TmpfsDir(t)
			path := filepath.Join(dir, "kv.img")
			rng := rand.New(rand.NewSource(seed + int64(ei+1)*7919))
			var st kvSoakState
			recoveries := 0
			for cycle := 0; cycle < cycles; cycle++ {
				cmd, addr, corrupt := kvSpawn(t, exe, engine, path)
				if corrupt != "" {
					if recoveries > 0 {
						t.Fatalf("cycle %d: device corrupt after successful recoveries: %s", cycle, corrupt)
					}
					t.Logf("cycle %d: kill during format, re-creating (%s)", cycle, corrupt)
					os.Remove(path)
					continue
				}
				watchdog := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
				c, err := kvserver.Dial(addr, 10*time.Second)
				if err != nil {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("cycle %d: dial %s: %v", cycle, addr, err)
				}
				if cycle > 0 {
					kvVerify(t, c, &st, cycle)
					recoveries++
				}
				killAfter := 1 + rng.Intn(200)
				kill := func() {
					// Sub-millisecond jitter lands the SIGKILL inside
					// commits, group-commit batches, even replies. Drawn
					// here, on the driver's goroutine: rng is not shared
					// with the timer.
					jitter := time.Duration(rng.Intn(800)) * time.Microsecond
					go func() {
						time.Sleep(jitter)
						cmd.Process.Kill()
					}()
				}
				kvDrive(t, c, &st, rng, killAfter, kill)
				c.Close()
				cmd.Process.Kill() // idempotent: ensure it is gone
				cmd.Wait()
				watchdog.Stop()
			}
			// Final incarnation: verify once more, then check it serves.
			cmd, addr, corrupt := kvSpawn(t, exe, engine, path)
			if corrupt != "" {
				t.Fatalf("final restart: %s", corrupt)
			}
			defer func() { cmd.Process.Kill(); cmd.Wait() }()
			c, err := kvserver.Dial(addr, 10*time.Second)
			if err != nil {
				t.Fatalf("final dial: %v", err)
			}
			defer c.Close()
			kvVerify(t, c, &st, cycles)
			if recoveries == 0 {
				t.Fatal("no cycle ever recovered; the kill schedule never let the service attach")
			}
			t.Logf("%s: %d cycles, %d verified recoveries, acked counter=%d, %d SET acks",
				engine, cycles, recoveries+1, st.ackedIncr, st.seq)
		})
	}
}
