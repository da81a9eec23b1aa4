package conformtest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
)

// The device model is written once (pmem.Sim) and runs over two image
// stores. This file tests the seam between them: that both stores see the
// same model, that the model tells a backing about every image write, that
// a failed sync is never papered over, and that the file format is the one
// version 1 has always been.

// runProgram drives d through a seeded mix of every persistence operation,
// crashes included. Sequences are drawn from a small range so that stale
// flushes meet the monotonic guard.
func runProgram(d pmem.Device, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	raw, pairs := d.RawWords(), d.PairWords()
	for i := 0; i < steps; i++ {
		slot := rng.Intn(4)
		switch op := rng.Intn(40); {
		case op < 14:
			d.RawStore(rng.Intn(raw), rng.Uint64())
		case op < 22:
			off := rng.Intn(raw)
			d.Flush(slot, off, 1+rng.Intn(min(20, raw-off)))
		case op < 27:
			d.FlushPair(slot, rng.Intn(pairs), rng.Uint64(), uint64(rng.Intn(8)))
		case op < 32:
			var idx [pmem.PairLineWords]int
			var vals, seqs [pmem.PairLineWords]uint64
			line := rng.Intn(pairs / pmem.PairLineWords)
			n := 1 + rng.Intn(pmem.PairLineWords)
			for j := 0; j < n; j++ {
				idx[j] = line*pmem.PairLineWords + j
				vals[j], seqs[j] = rng.Uint64(), uint64(rng.Intn(8))
			}
			d.FlushPairLine(slot, n, &idx, &vals, &seqs)
		case op < 35:
			d.Fence(slot)
		case op < 39:
			d.Drain(slot)
		default:
			d.Crash()
		}
	}
}

func snapshotOf(t *testing.T, d pmem.Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestDifferentialSimVsFile: the same relaxed-mode program on the simulator
// and on the file device ends in byte-identical images and identical
// counters. Every Crash in it keeps or drops buffered flushes by the device
// RNG, and seed 1's image is pinned to the digest the program produced
// before the two devices shared one model, which pins the order in which
// Crash draws from the RNG — the order recorded -seed / ONEFILE_SEED replays
// depend on.
func TestDifferentialSimVsFile(t *testing.T) {
	const seed1Image = "05c285aaf85d9fd5c354611a073e59d0a48c636857002121985916fe28ab9051"
	seed1Stats := pmem.Stats{Pwb: 1982, Pfence: 236, Pdrain: 293}
	for seed := int64(1); seed <= 8; seed++ {
		var images [][]byte
		var stats []pmem.Stats
		for _, b := range backends() {
			d := b.mk(t, pmem.Config{RawWords: 256, PairWords: 64, Mode: pmem.RelaxedMode, MaxSlots: 4, Seed: seed})
			runProgram(d, 100+seed, 3000)
			images = append(images, snapshotOf(t, d))
			stats = append(stats, d.Stats())
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Errorf("seed %d: sim and file images differ after the same program", seed)
		}
		if stats[0] != stats[1] {
			t.Errorf("seed %d: sim counted %+v, file %+v", seed, stats[0], stats[1])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(images[0])); seed == 1 && (got != seed1Image || stats[0] != seed1Stats) {
			t.Errorf("seed 1: image %s, counters %+v; recorded %s, %+v", got, stats[0], seed1Image, seed1Stats)
		}
	}
}

// recordingBacking checks the property msync correctness rests on: at every
// Sync, and whenever check is called, each image word that differs from its
// value at the previous Sync lies inside a range Dirtied has reported since.
type recordingBacking struct {
	img, atSync [2][]uint64 // indexed by pmem.Region
	reported    [2][]bool
	syncs       int
	failNext    error // returned, once, by the next Sync
	violations  []string
}

func newRecordingBacking(raw, pairs []uint64) *recordingBacking {
	b := &recordingBacking{img: [2][]uint64{raw, pairs}}
	for r, img := range b.img {
		b.atSync[r] = append([]uint64(nil), img...)
		b.reported[r] = make([]bool, len(img))
	}
	return b
}

func (b *recordingBacking) Dirtied(region pmem.Region, word, n int) {
	for i := word; i < word+n; i++ {
		b.reported[region][i] = true
	}
}

func (b *recordingBacking) check(when string) {
	for r, img := range b.img {
		for i, v := range img {
			if v != b.atSync[r][i] && !b.reported[r][i] {
				b.violations = append(b.violations, fmt.Sprintf("%s: region %d word %d changed unreported", when, r, i))
			}
		}
	}
}

func (b *recordingBacking) Sync() error {
	if err := b.failNext; err != nil {
		b.failNext = nil
		return err
	}
	b.syncs++
	b.check(fmt.Sprintf("sync %d", b.syncs))
	for r, img := range b.img {
		copy(b.atSync[r], img)
		clear(b.reported[r])
	}
	return nil
}

// TestDirtiedCoversEveryImageWrite runs the model over a recording backing
// in both modes: flushes, ordering points and crashes, then a snapshot
// load, then the write-back of still-buffered flushes at Close.
func TestDirtiedCoversEveryImageWrite(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
		cfg := pmem.Config{RawWords: 256, PairWords: 64, Mode: mode, MaxSlots: 4, Seed: 3}
		other, err := pmem.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runProgram(other, 7, 500)
		snap := snapshotOf(t, other)

		raw, pairs := make([]uint64, cfg.RawWords), make([]uint64, 2*cfg.PairWords)
		b := newRecordingBacking(raw, pairs)
		d, err := pmem.NewOver(cfg, raw, pairs, b, true)
		if err != nil {
			t.Fatal(err)
		}
		runProgram(d, 11, 3000)
		b.check("after the program")

		before := b.syncs
		if _, err := d.ReadFrom(bytes.NewReader(snap)); err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if b.syncs != before+1 {
			t.Errorf("mode %d: ReadFrom synced %d times, want 1", mode, b.syncs-before)
		}
		if !bytes.Equal(snapshotOf(t, d), snap) {
			t.Errorf("mode %d: the image after ReadFrom is not the snapshot", mode)
		}

		// Buffered in relaxed mode, written through in strict: either way
		// Close leaves them in the image, reported and synced.
		d.RawStore(9, 99)
		d.Flush(1, 9, 1)
		d.FlushPair(2, 40, 4040, 9)
		before = b.syncs
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		b.check("after Close")
		if v, s := d.ImagePair(40); d.ImageRaw(9) != 99 || v != 4040 || s != 9 || b.syncs != before+1 {
			t.Errorf("mode %d: Close left raw 9 = %d, pair 40 = (%d,%d), %d syncs; want 99, (4040,9), 1",
				mode, d.ImageRaw(9), v, s, b.syncs-before)
		}
		for _, v := range b.violations {
			t.Errorf("mode %d: %s", mode, v)
		}
	}
}

// mustPanicSync runs fn, which must panic with a *pmem.SyncError wrapping
// cause.
func mustPanicSync(t *testing.T, what string, cause error, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		err, _ := recover().(error)
		var se *pmem.SyncError
		if !errors.Is(err, pmem.ErrSync) || !errors.As(err, &se) || !errors.Is(err, cause) {
			t.Errorf("%s: recovered %v, want a *pmem.SyncError wrapping %v", what, err, cause)
		}
	}()
	fn()
	t.Errorf("%s returned: a lost sync was reported as durable", what)
}

// TestSyncFailureIsSticky: a backing whose Sync fails once. That ordering
// point panics with ErrSync, and so does every later one — the backing is
// not asked again, because a later success would cover for the lost writes.
func TestSyncFailureIsSticky(t *testing.T) {
	cfg := smallCfg(pmem.StrictMode)
	raw, pairs := make([]uint64, cfg.RawWords), make([]uint64, 2*cfg.PairWords)
	b := newRecordingBacking(raw, pairs)
	d, err := pmem.NewOver(cfg, raw, pairs, b, true)
	if err != nil {
		t.Fatal(err)
	}
	d.RawStore(3, 77)
	d.Flush(0, 3, 1)
	d.Drain(0)
	if b.syncs != 1 {
		t.Fatalf("healthy Drain synced %d times, want 1", b.syncs)
	}

	b.failNext = syscall.EIO
	d.RawStore(4, 88)
	d.Flush(0, 4, 1)
	mustPanicSync(t, "the failing Drain", syscall.EIO, func() { d.Drain(0) })
	mustPanicSync(t, "the next Drain", syscall.EIO, func() { d.Drain(0) })
	mustPanicSync(t, "a later Fence, other slot", syscall.EIO, func() { d.Fence(1) })
	if _, err := d.ReadFrom(bytes.NewReader(snapshotOf(t, d))); !errors.Is(err, pmem.ErrSync) {
		t.Errorf("ReadFrom after a lost sync = %v, want ErrSync", err)
	}
	if err := d.Close(); !errors.Is(err, pmem.ErrSync) {
		t.Errorf("Close after a lost sync = %v, want ErrSync", err)
	}
	if b.syncs != 1 {
		t.Errorf("%d syncs succeeded after the failure; none may", b.syncs-1)
	}
}

// TestFileLayoutVersion1 pins the on-disk format as golden bytes: a
// 256/64-word device with one raw word and one pair written is exactly a
// superblock block, the raw region at 4096 and the pair region after it,
// pair i at pairOff + 16*i, value then sequence, little-endian.
func TestFileLayoutVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := filedev.Create(path, pmem.Config{RawWords: 256, PairWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	d.RawStore(3, 0x1122334455667788)
	d.Flush(0, 3, 1)
	d.FlushPair(0, 5, 0xAABBCCDD, 7)
	d.Fence(0)

	// Superblock words 0..5: magic, version 1, 256 raw words, 64 TM words,
	// state, IEEE CRC-32 of the 40 bytes before it.
	const (
		sbHead  = "0170de1ef1000000" + "0100000000000000" + "0001000000000000" + "4000000000000000"
		sbDirty = sbHead + "0200000000000000" + "a5cf726600000000"
		sbClean = sbHead + "0100000000000000" + "46c8fde800000000"

		rawOff, pairOff, size = 4096, 4096 + 4096, 4096 + 4096 + 4096
	)
	want := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint64(want[rawOff+8*3:], 0x1122334455667788)
	le.PutUint64(want[pairOff+16*5:], 0xAABBCCDD)
	le.PutUint64(want[pairOff+16*5+8:], 7)

	compare := func(when string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: file is %d bytes, want %d", when, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: byte %d = %#x, want %#x", when, i, got[i], want[i])
			}
		}
	}
	hex.Decode(want, []byte(sbDirty))
	compare("open")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	hex.Decode(want, []byte(sbClean))
	compare("closed")
}
