package conformtest

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
)

// chunkCfg sizes a device of three whole pair chunks and a short fourth, and
// a raw region of three raw chunks and a bit.
func chunkCfg(mode pmem.Mode, seed int64) pmem.Config {
	return pmem.Config{RawWords: 3<<13 + 5, PairWords: 3*pmem.PairChunkWords + 6, Mode: mode, MaxSlots: 4, Seed: seed}
}

const chunk = pmem.PairChunkWords

func wantSpans(t *testing.T, d pmem.Device, when string, want ...pmem.Span) {
	t.Helper()
	if got := d.WrittenPairs(); !slices.Equal(got, want) {
		t.Fatalf("%s: WrittenPairs = %v, want %v", when, got, want)
	}
}

// TestWritesMarkTheirChunk: a fresh device reports no chunk of its pair image
// written, and every path by which a write reaches the image reports the
// write's chunk from then on, and only that one — a merged FlushPair and
// FlushPairLine at their ordering point (a strict one at the next image
// observer already, since it keeps every posted pwb), a relaxed one kept by
// Crash (and not one Crash dropped), and ReadFrom, which reports exactly
// the chunks that hold a non-zero word of the snapshot. Written chunks next to
// each other are one span; the last one ends with the image.
func TestWritesMarkTheirChunk(t *testing.T) {
	for name, mode := range map[string]pmem.Mode{"strict": pmem.StrictMode, "relaxed": pmem.RelaxedMode} {
		t.Run(name, func(t *testing.T) {
			forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
				cfg := chunkCfg(mode, 1)
				end := cfg.PairWords
				d := mk(t, cfg)
				wantSpans(t, d, "fresh")

				d.FlushPair(0, chunk+7, 1, 1)
				if mode == pmem.RelaxedMode {
					wantSpans(t, d, "relaxed pwb before its ordering point")
				}
				d.Fence(0)
				wantSpans(t, d, "after a fenced FlushPair", pmem.Span{Lo: chunk, Hi: 2 * chunk})

				idx := [pmem.PairLineWords]int{end - 2, end - 1}
				vals := [pmem.PairLineWords]uint64{5, 6}
				seqs := [pmem.PairLineWords]uint64{2, 2}
				d.FlushPairLine(1, 2, &idx, &vals, &seqs)
				d.Drain(1)
				wantSpans(t, d, "after a drained FlushPairLine",
					pmem.Span{Lo: chunk, Hi: 2 * chunk}, pmem.Span{Lo: 3 * chunk, Hi: end})

				d.FlushPair(2, 3, 9, 3) // chunk 0, next to chunk 1
				if mode == pmem.StrictMode {
					wantSpans(t, d, "a strict pwb no ordering point followed",
						pmem.Span{Lo: 0, Hi: 2 * chunk}, pmem.Span{Lo: 3 * chunk, Hi: end})
				}
				d.Fence(2)
				wantSpans(t, d, "chunks 0, 1 and 3 written",
					pmem.Span{Lo: 0, Hi: 2 * chunk}, pmem.Span{Lo: 3 * chunk, Hi: end})

				// ReadFrom: a snapshot that holds chunk 2 only.
				other := mk(t, cfg)
				other.FlushPair(0, 2*chunk+1, 4, 4)
				other.Fence(0)
				var snap bytes.Buffer
				if _, err := other.WriteTo(&snap); err != nil {
					t.Fatal(err)
				}
				if _, err := d.ReadFrom(&snap); err != nil {
					t.Fatal(err)
				}
				wantSpans(t, d, "after ReadFrom of a snapshot holding chunk 2", pmem.Span{Lo: 2 * chunk, Hi: 3 * chunk})
			})
		})
	}
}

// TestRelaxedCrashMarksWhatItKeeps: a relaxed Crash keeps a random subset of
// the flushes still staged. A chunk is reported written exactly when a flush
// into it was kept — the image holds its word — over seeds that keep either.
func TestRelaxedCrashMarksWhatItKeeps(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		var kept, dropped bool
		for seed := int64(1); seed <= 16 && !(kept && dropped); seed++ {
			d := mk(t, chunkCfg(pmem.RelaxedMode, seed))
			for c := 0; c < 3; c++ {
				d.FlushPair(0, c*chunk+c, uint64(c)+1, 1)
			}
			d.Crash()
			written := d.WrittenPairs()
			for c := 0; c < 3; c++ {
				val, _ := d.ImagePair(c*chunk + c)
				in := slices.ContainsFunc(written, func(s pmem.Span) bool { return s.Lo <= c*chunk && c*chunk < s.Hi })
				if in != (val != 0) {
					t.Fatalf("seed %d: chunk %d reported written %v, image holds %d", seed, c, in, val)
				}
				kept, dropped = kept || in, dropped || !in
			}
		}
		if !kept || !dropped {
			t.Fatalf("no seed kept (%v) and dropped (%v) a staged flush", kept, dropped)
		}
	})
}

// TestCrashZeroesWhatNoFlushWrote: Crash sets every word of the raw view to
// the image, whatever the view held — the chunk a flush reached from the
// image, the chunks none did to zero — in both modes, and ReadFrom does the
// same for the snapshot it loads.
func TestCrashZeroesWhatNoFlushWrote(t *testing.T) {
	garbage := func(d pmem.Device) {
		for i := range d.RawWords() {
			d.RawStore(i, ^uint64(i))
		}
	}
	same := func(t *testing.T, d pmem.Device, when string) {
		t.Helper()
		for i := range d.RawWords() {
			if v, img := d.RawLoad(i), d.ImageRaw(i); v != img {
				t.Fatalf("%s: raw word %d = %#x, image %#x", when, i, v, img)
			}
		}
	}
	for name, mode := range map[string]pmem.Mode{"strict": pmem.StrictMode, "relaxed": pmem.RelaxedMode} {
		t.Run(name, func(t *testing.T) {
			forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
				cfg := chunkCfg(mode, 1)
				d := mk(t, cfg)
				garbage(d)
				d.Flush(0, 1<<13+3, 1) // a line of chunk 1
				d.Fence(0)
				if d.ImageRaw(1<<13+3) == 0 {
					t.Fatal("the flushed raw word did not reach the image")
				}
				garbage(d)
				d.Crash()
				same(t, d, "after Crash")

				var snap bytes.Buffer
				if _, err := d.WriteTo(&snap); err != nil {
					t.Fatal(err)
				}
				fresh := mk(t, cfg)
				garbage(fresh)
				if _, err := fresh.ReadFrom(&snap); err != nil {
					t.Fatal(err)
				}
				same(t, fresh, "after ReadFrom")
				if fresh.RawLoad(1<<13+3) == 0 {
					t.Fatal("ReadFrom lost the flushed raw word")
				}
			})
		})
	}
}

// TestOpenReportsEveryChunk: a file device opened over an existing file has
// not read its image, so it reports all of it written — and attach reads it
// all — while Create's zeroed file reports nothing.
func TestOpenReportsEveryChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	cfg := chunkCfg(pmem.StrictMode, 1)
	d, err := filedev.Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSpans(t, d, "Create")
	d.FlushPair(0, 2*chunk, 1, 1)
	d.Fence(0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = filedev.Open(path, cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	wantSpans(t, d, "Open", pmem.Span{Lo: 0, Hi: cfg.PairWords})
}
