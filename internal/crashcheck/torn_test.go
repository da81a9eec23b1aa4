package crashcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/testutil"
)

// Torn-msync sweep: the file device makes data power-loss durable in
// batches — everything flushed since the last fence is one msync. A power
// failure mid-writeback persists only part of that batch. This test
// enumerates crash points like the matrix, but instead of pmem.Crash it
// reconstructs the durable file image by hand: the image as of the last
// completed fence, plus a fault-injected subset of the un-synced tail —
// either an independent random subset of its durability units (cache lines
// in the raw region, {value, sequence} pairs in the pair region) or an
// address-ordered prefix cut (writeback interrupted partway). The torn image
// is loaded into a real file device and recovery must land on the oracle,
// exactly as for an enumerated crash.
//
// The single-threaded workload makes the global fence order equal the
// per-slot one, which is also precisely the file device's semantics: its
// fence msyncs the whole dirty range, not a per-slot buffer.

// tornTrace is the raw material of one torn crash point: the encoded durable
// image at the last completed fence, the encoded image at the crash event
// (all flushed data), and the crashAt trace with its ack count.
type tornTrace struct {
	trace
	synced []byte
	final  []byte
}

// runTornTrace executes the program on a strict simulator, crashing at
// persistence event `event` (1-based), and captures the images bracketing
// the un-synced tail. tr.crashed is false when the event is past the trace.
func runTornTrace(def EngineDef, p *Program, event int) (tr tornTrace, err error) {
	devs, run, err := single{def, p}.open(nil, pmem.StrictMode, 1)
	if err != nil {
		return tr, err
	}
	defer closeAll(devs)
	dev := devs[0]
	// The sweep starts after the format, like the enumerated matrix: the
	// formatted image is the baseline the fault injection never disturbs
	// (format completion is the guarantee under test, not its internals).
	var synced bytes.Buffer
	if _, err := dev.WriteTo(&synced); err != nil {
		return tr, err
	}
	tr.trace, err = crashAt(devs, run, event, func(ev pmem.Event) {
		// The fence completed (the crash is at a later event): everything
		// flushed so far is msync'd. In strict mode the image IS the set of
		// completed flushes, so snapshotting it here captures exactly the
		// synced prefix.
		if ev == pmem.EvFence || ev == pmem.EvDrain {
			synced.Reset()
			if _, werr := dev.WriteTo(&synced); werr != nil {
				panic(werr)
			}
		}
	})
	if err != nil || !tr.crashed {
		return tr, err
	}
	// A strict crash keeps every flush, so the crashed image is the final one.
	var final bytes.Buffer
	if _, err := dev.WriteTo(&final); err != nil {
		return tr, err
	}
	tr.synced, tr.final = synced.Bytes(), final.Bytes()
	return tr, nil
}

// decodeImg splits an encoded snapshot into raw words and interleaved
// {value, sequence} pair words.
func decodeImg(t *testing.T, img []byte, cfg pmem.Config) (raw, pairs []uint64) {
	t.Helper()
	raw = make([]uint64, cfg.RawWords)
	pairs = make([]uint64, 2*cfg.PairWords)
	if _, err := pmem.DecodeImage(bytes.NewReader(img), raw, pairs); err != nil {
		t.Fatalf("decoding trace image: %v", err)
	}
	return raw, pairs
}

// buildTorn composes the torn durable image: synced state plus a
// fault-injected subset of the (synced → final) diff. Odd seeds keep an
// independent random subset of the batch's durability units; even seeds keep
// an address-ordered prefix (writeback cut short at a random unit).
func buildTorn(t *testing.T, tr tornTrace, cfg pmem.Config, seed int64) []byte {
	t.Helper()
	rawS, pairS := decodeImg(t, tr.synced, cfg)
	rawF, pairF := decodeImg(t, tr.final, cfg)

	// Durability units of the un-synced tail, in address order: raw cache
	// lines first (they precede the pair region in the file layout), then
	// pairs. Each unit knows how to persist itself into the torn image.
	type unit func()
	rawT := append([]uint64(nil), rawS...)
	pairT := append([]uint64(nil), pairS...)
	var units []unit
	for line := 0; line*pmem.LineWords < len(rawS); line++ {
		lo := line * pmem.LineWords
		hi := min(lo+pmem.LineWords, len(rawS))
		if !bytes.Equal(wordsBytes(rawS[lo:hi]), wordsBytes(rawF[lo:hi])) {
			units = append(units, func() { copy(rawT[lo:hi], rawF[lo:hi]) })
		}
	}
	for i := 0; 2*i < len(pairS); i++ {
		lo := 2 * i
		if pairS[lo] != pairF[lo] || pairS[lo+1] != pairF[lo+1] {
			units = append(units, func() { copy(pairT[lo:lo+2], pairF[lo:lo+2]) })
		}
	}

	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		cut := rng.Intn(len(units) + 1)
		for _, persist := range units[:cut] {
			persist()
		}
	} else {
		for _, persist := range units {
			if rng.Intn(2) == 0 {
				persist()
			}
		}
	}

	var buf bytes.Buffer
	if _, err := pmem.EncodeImage(&buf, rawT, pairT); err != nil {
		t.Fatalf("encoding torn image: %v", err)
	}
	return buf.Bytes()
}

func wordsBytes(w []uint64) []byte {
	b := make([]byte, 0, 8*len(w))
	for _, x := range w {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return b
}

// TestTornMsyncBatchRecovery sweeps every persistent engine over torn-batch
// crash points: for each persistence event and fault seed, recovery from the
// hand-torn file image must satisfy every matrix invariant. A failure
// preserves the torn image for onefile-inspect post-mortem.
func TestTornMsyncBatchRecovery(t *testing.T) {
	seed := testutil.Seed(t, 1)
	txns, stride := 5, 2
	tornSeeds := []int64{1, 2} // one subset strategy, one prefix-cut strategy
	if testing.Short() {
		txns, stride = 3, 5
	}
	p := NewProgram(seed, txns)
	for _, def := range Engines() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			dir := testutil.TmpfsDir(t)
			cfg := def.DeviceConfig(pmem.StrictMode, 1, engineOpts()...)
			points := 0
			for event := 1; ; event += stride {
				tr, err := runTornTrace(def, p, event)
				if err != nil {
					t.Fatalf("event %d: trace: %v", event, err)
				}
				if !tr.crashed {
					break
				}
				for _, ts := range tornSeeds {
					torn := buildTorn(t, tr, cfg, ts*1e6+int64(event))
					path := filepath.Join(dir, "torn.img")
					os.Remove(path)
					fdev, err := filedev.Create(path, cfg)
					if err != nil {
						t.Fatalf("event %d: creating torn device: %v", event, err)
					}
					if _, err := fdev.ReadFrom(bytes.NewReader(torn)); err != nil {
						t.Fatalf("event %d: loading torn image: %v", event, err)
					}
					if err := recoverAndVerify(single{def, p}, []pmem.Device{fdev}, tr.acked); err != nil {
						keep := filepath.Join(os.TempDir(), fmt.Sprintf("onefile-torn-%s-ev%d-seed%d.img", def.Name, event, ts))
						fdev.Close()
						if cerr := os.Rename(path, keep); cerr != nil {
							keep = "(preserve failed: " + cerr.Error() + ")"
						}
						t.Errorf("event %d torn-seed %d: %v\n  post-mortem: go run ./cmd/onefile-inspect -file -engine %s -heap %d -max-threads %d -max-stores %d %s",
							event, ts, err, def.Name, 1<<13, 4, 1<<10, keep)
						continue
					}
					fdev.Close()
					points++
				}
			}
			t.Logf("%s: %d torn crash points verified", def.Name, points)
			if points == 0 {
				t.Fatal("sweep exercised no torn points")
			}
		})
	}
}
