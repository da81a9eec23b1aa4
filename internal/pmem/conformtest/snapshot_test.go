package conformtest

import (
	"bytes"
	"strings"
	"testing"

	"onefile/internal/pmem"
)

// TestSnapshotRoundTrip exercises the portable image format across every
// (source, destination) backend pair: a snapshot written by one backend must
// load into any other, carrying exactly the durable state.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, src := range backends() {
		for _, dst := range backends() {
			t.Run(src.name+"_to_"+dst.name, func(t *testing.T) {
				d := src.mk(t, smallCfg(pmem.StrictMode))
				d.RawStore(3, 77)
				d.Flush(0, 3, 1)
				d.RawStore(4, 88) // volatile only: must NOT survive the snapshot
				d.FlushPair(0, 5, 9, 2)

				var buf bytes.Buffer
				if _, err := d.WriteTo(&buf); err != nil {
					t.Fatalf("WriteTo: %v", err)
				}

				d2 := dst.mk(t, smallCfg(pmem.StrictMode))
				if _, err := d2.ReadFrom(&buf); err != nil {
					t.Fatalf("ReadFrom: %v", err)
				}
				if got := d2.RawLoad(3); got != 77 {
					t.Errorf("raw word = %d, want 77", got)
				}
				if got := d2.RawLoad(4); got != 0 {
					t.Errorf("volatile word leaked into snapshot: %d", got)
				}
				if v, s := d2.ImagePair(5); v != 9 || s != 2 {
					t.Errorf("pair = (%d,%d), want (9,2)", v, s)
				}
				if v, s := d2.ImagePair(6); v != 0 || s != 0 {
					t.Errorf("untouched pair = (%d,%d)", v, s)
				}
			})
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		if _, err := d.ReadFrom(strings.NewReader("not a snapshot at all, sorry")); err == nil {
			t.Fatal("garbage accepted")
		}

		// A stream that passes the header check and ends inside the pair
		// body has already replaced the raw image. The load fails, and the
		// device is left as a crash on that half-loaded image would leave
		// it: no buffered flush survives and the volatile view is the image.
		src := mk(t, smallCfg(pmem.RelaxedMode))
		src.RawStore(3, 77)
		src.Flush(0, 3, 1)
		src.Fence(0)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		short := buf.Bytes()[:buf.Len()-8]

		d = mk(t, smallCfg(pmem.RelaxedMode))
		d.RawStore(20, 5)
		d.Flush(0, 20, 1) // buffered: the failed load must drop it
		d.RawStore(30, 6) // volatile only: the failed load must reset it
		if _, err := d.ReadFrom(bytes.NewReader(short)); err == nil {
			t.Fatal("truncated snapshot accepted")
		}
		d.Fence(0)
		if got := d.ImageRaw(20); got != 0 {
			t.Errorf("a flush buffered before the failed load reached the image: %d", got)
		}
		if got := d.ImageRaw(3); got != 77 {
			t.Errorf("raw image word 3 = %d; the stream's raw region was read in full, want 77", got)
		}
		for i := 0; i < d.RawWords(); i++ {
			if v, img := d.RawLoad(i), d.ImageRaw(i); v != img {
				t.Fatalf("volatile word %d = %d, image holds %d", i, v, img)
			}
		}
	})
}

func TestSnapshotRejectsWrongSize(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.StrictMode))
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		other := mk(t, pmem.Config{RawWords: 512, PairWords: 64, Mode: pmem.StrictMode, MaxSlots: 4, Seed: 42})
		if _, err := other.ReadFrom(&buf); err == nil {
			t.Fatal("size mismatch accepted")
		}
	})
}

func TestSnapshotDropsPending(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, smallCfg(pmem.RelaxedMode))
		d.RawStore(3, 5)
		d.Flush(0, 3, 1) // pending, never fenced
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		d2 := mk(t, smallCfg(pmem.RelaxedMode))
		if _, err := d2.ReadFrom(&buf); err != nil {
			t.Fatal(err)
		}
		if got := d2.RawLoad(3); got != 0 {
			t.Errorf("un-fenced flush survived the snapshot: %d", got)
		}
	})
}
