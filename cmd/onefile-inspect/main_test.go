package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/tm"
)

const (
	testHeap    = 1 << 13
	testThreads = 4
	testStores  = 1 << 10
)

func testOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(testHeap),
		tm.WithMaxThreads(testThreads),
		tm.WithMaxStores(testStores),
	}
}

func testOptions(deviceFile bool) options {
	return options{
		heapWords:  testHeap,
		maxThreads: testThreads,
		maxStores:  testStores,
		showRoots:  true,
		deviceFile: deviceFile,
		engine:     "OF-LF-PTM",
	}
}

// crashPanic simulates the process dying at a persistence event.
type crashPanic struct{}

// TestInspectSnapshot is the end-to-end smoke test: format a device, commit
// transactions (direct and combined), kill the process mid-commit, save the
// durable image, and check the inspector's report on it.
func TestInspectSnapshot(t *testing.T) {
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, testOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentLF(dev, false, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}

	// Durable state the report must show: two root slots, one of them
	// pointing at an allocated block, written partly through BatchUpdate.
	e.Update(func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(3), 7777)
		return 0
	})
	res := e.BatchUpdate([]func(tm.Tx) uint64{
		func(tx tm.Tx) uint64 {
			p := tx.Alloc(8)
			tx.Store(p, 42)
			tx.Store(tm.Root(4), uint64(p))
			return uint64(p)
		},
		func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(5), tx.Load(tm.Root(3))+1)
			return 0
		},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batched txn %d: %v", i, r.Err)
		}
	}

	// Kill the process in the middle of the next commit's persistence
	// activity; the interrupted transaction must not appear in the report.
	n := 0
	dev.SetHook(func(pmem.Event) {
		n++
		if n >= 2 {
			panic(crashPanic{})
		}
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashPanic); !ok {
					panic(r)
				}
			}
		}()
		e.Update(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(6), 0xDEAD)
			return 0
		})
	}()
	dev.SetHook(nil)
	dev.Crash() // power loss: only the durable image survives

	path := filepath.Join(t.TempDir(), "crashed.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := inspect(path, &out, testOptions(false)); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"slot  3 = 7777",
		"slot  5 = 7778",
		"audit:         OK",
		"recovery:      null recovery complete",
		"  attach:      ",
		" heap words walked in ",
		"  pending:     ",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Root 4 holds the allocated block's pointer; the allocator must
	// account for the 8 words behind it.
	if !strings.Contains(report, fmt.Sprintf("slot  4 = %d", res[0].Val)) {
		t.Errorf("report missing allocated root slot:\n%s", report)
	}
	if strings.Contains(report, "0xDEAD") || strings.Contains(report, "slot  6") {
		t.Errorf("interrupted transaction leaked into the report:\n%s", report)
	}
}

// TestInspectBadPath checks the error paths: missing file and size mismatch.
func TestInspectBadPath(t *testing.T) {
	var out bytes.Buffer
	if err := inspect(filepath.Join(t.TempDir(), "nope.bin"), &out, testOptions(false)); err == nil {
		t.Fatal("inspect of a missing file succeeded")
	}
}

// TestInspectDeviceFile points -file at an mmap-backed device that was never
// Closed — the post-mortem case the flag exists for. The report must call
// the image dirty, show the committed roots, and leave the file untouched.
func TestInspectDeviceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	dev, err := filedev.Create(path, core.DeviceConfig(pmem.StrictMode, 1, testOpts()...))
	if err != nil {
		t.Skipf("file device unavailable: %v", err)
	}
	e, err := core.NewPersistentLF(dev, false, testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(3), 4242)
		return 0
	})
	// No Close: the superblock stays dirty, exactly like a killed process.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := inspect(path, &out, testOptions(true)); err != nil {
		t.Fatalf("inspect -file: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"shutdown:      DIRTY",
		"slot  3 = 4242",
		"audit:         OK",
		" heap words walked in ",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("inspect -file mutated the device image")
	}

	// A cleanly Closed device reports a clean shutdown.
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := inspect(path, &out, testOptions(true)); err != nil {
		t.Fatalf("inspect -file after Close: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shutdown:      clean") {
		t.Errorf("report missing clean shutdown:\n%s", out.String())
	}

	// Wrong sizing flags must fail with a geometry message, not garbage.
	o := testOptions(true)
	o.heapWords = testHeap * 2
	out.Reset()
	if err := inspect(path, &out, o); err == nil || !strings.Contains(err.Error(), "sizing flags") {
		t.Errorf("mismatched sizing flags: err=%v", err)
	}
}
