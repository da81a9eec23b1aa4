package crashcheck

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

type attachBackend struct {
	name string
	fac  DeviceFactory
}

func attachBackends(t *testing.T) []attachBackend {
	return []attachBackend{{"sim", nil}, {"file", fileFactory(testutil.TmpfsDir(t))}}
}

// TestAttachRejectsWordBeyondCurTx: null recovery rests on durable words
// never running ahead of the durable curTx (§III-D). An image that breaks
// it — a damaged file, or one written by a build that still had the small
// commit — is refused with ErrCorrupt naming both sequences, on both
// backends; it must not become an engine whose loads of that word abort
// forever. At one P attach walks the image inline, at two it splits the walk.
func TestAttachRejectsWordBeyondCurTx(t *testing.T) {
	for _, backend := range attachBackends(t) {
		for _, name := range []string{"OF-LF-PTM", "OF-WF-PTM"} {
			t.Run(backend.name+"/"+name, func(t *testing.T) {
				for _, procs := range []int{1, 2} {
					t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						def, err := EngineByName(name)
						if err != nil {
							t.Fatal(err)
						}
						dev, err := backend.fac.newDevice(def.DeviceConfig(pmem.StrictMode, 1, engineOpts()...))
						if err != nil {
							t.Fatal(err)
						}
						defer dev.Close()
						e, err := def.New(dev, false, engineOpts()...)
						if err != nil {
							t.Fatal(err)
						}
						e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 7); return 0 })
						cur := e.(*core.Engine).CurSeq()

						// The image as the protocol left it attaches.
						dev.Crash()
						if _, err := def.New(dev, true, engineOpts()...); err != nil {
							t.Fatalf("attach to an intact image: %v", err)
						}

						// One heap pair posted at curTx+1, fenced durable.
						dev.FlushPair(0, int(tm.Root(1)), 99, cur+1)
						dev.Fence(0)
						dev.Crash()
						_, err = def.New(dev, true, engineOpts()...)
						if !errors.Is(err, core.ErrCorrupt) {
							t.Fatalf("attach = %v, want ErrCorrupt", err)
						}
						t.Log(err)
						for _, seq := range []uint64{cur, cur + 1} {
							if want := fmt.Sprintf("sequence %d", seq); !strings.Contains(err.Error(), want) {
								t.Errorf("error %q does not name %s", err, want)
							}
						}
					})
				}
			})
		}
	}
}

// The geometry tests below format with geomOpts(32) and attach with something
// else. Where they look at the device directly they use the engine's layout:
// curTx's image is pair word HeapWords and its low ten bits are the committing
// slot; raw words 1–3 of the header line hold HeapWords, MaxThreads, MaxStores.
const geomHeap, geomStores = 1 << 12, 1 << 8

func geomOpts(threads int) []tm.Option {
	return []tm.Option{tm.WithHeapWords(geomHeap), tm.WithMaxThreads(threads), tm.WithMaxStores(geomStores)}
}

// commitFromHighSlot formats dev for 32 thread slots and runs transactions
// from 20 goroutines that hold 20 slots at once, until the durable curTx was
// committed by slot 4 or above — the image a 4-slot attach cannot index.
func commitFromHighSlot(t *testing.T, dev pmem.Device) {
	t.Helper()
	e, err := core.NewPersistentLF(dev, false, geomOpts(32)...)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 20
	for round := 0; round < 100; round++ {
		// Every body waits, the first time it runs, until all of them are
		// running: each goroutine then holds a slot of its own.
		var inside, done sync.WaitGroup
		inside.Add(workers)
		for g := 0; g < workers; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				first := true
				e.Update(func(tx tm.Tx) uint64 {
					if first {
						first = false
						inside.Done()
						inside.Wait()
					}
					tx.Store(tm.Root(g), tx.Load(tm.Root(g))+1)
					return 0
				})
			}()
		}
		done.Wait()
		if cur, _ := dev.ImagePair(geomHeap); cur&1023 >= 4 {
			e.Close()
			return
		}
	}
	t.Fatal("no transaction committed from slot 4 or above in 100 rounds of 20 concurrent updates")
}

// TestAttachRejectsOtherGeometry: attach with a configuration other than the
// one the device was formatted with answers ErrBadDevice naming both — it used
// to index its slots with curTx's, and panic, or read every slot's log at the
// wrong offset, silently. An image whose header holds no geometry (written
// before format recorded it) is still attached on trust, but curTx's slot and
// that slot's store count are held to the configuration all the same, with
// ErrCorrupt.
func TestAttachRejectsOtherGeometry(t *testing.T) {
	attach := func(dev pmem.Device, opts ...tm.Option) error {
		dev.Crash()
		if _, err := core.NewPersistentWF(dev, true, opts...); err != nil {
			return err
		}
		dev.Crash()
		_, err := core.NewPersistentLF(dev, true, opts...)
		return err
	}
	for _, backend := range attachBackends(t) {
		t.Run(backend.name, func(t *testing.T) {
			dev, err := backend.fac.newDevice(core.DeviceConfig(pmem.StrictMode, 1, geomOpts(32)...))
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			commitFromHighSlot(t, dev)

			if err := attach(dev, geomOpts(32)...); err != nil {
				t.Fatalf("attach with the geometry of format: %v", err)
			}
			// The reproduction: curTx names a slot the configuration lacks.
			err = attach(dev, geomOpts(4)...)
			if !errors.Is(err, core.ErrBadDevice) || !strings.Contains(err.Error(), "formatted with") {
				t.Fatalf("attach with 4 of 32 thread slots = %v, want ErrBadDevice naming both geometries", err)
			}
			t.Log(err)
			// Each field off by a factor of two, either way. Twice the size
			// does not fit the device; half of it fits and must still be refused.
			for _, f := range []struct {
				field       string
				half, twice tm.Option
			}{
				{"HeapWords", tm.WithHeapWords(geomHeap / 2), tm.WithHeapWords(geomHeap * 2)},
				{"MaxThreads", tm.WithMaxThreads(16), tm.WithMaxThreads(64)},
				{"MaxStores", tm.WithMaxStores(geomStores / 2), tm.WithMaxStores(geomStores * 2)},
			} {
				err := attach(dev, append(geomOpts(32), f.half)...)
				if !errors.Is(err, core.ErrBadDevice) || !strings.Contains(err.Error(), "formatted with") {
					t.Errorf("attach with half the %s = %v, want ErrBadDevice naming both geometries", f.field, err)
				}
				if err := attach(dev, append(geomOpts(32), f.twice)...); !errors.Is(err, core.ErrBadDevice) {
					t.Errorf("attach with twice the %s = %v, want ErrBadDevice", f.field, err)
				}
			}

			// The same image with the geometry words zeroed, as a build before
			// this check left them.
			for off := 1; off <= 3; off++ {
				dev.RawStore(off, 0)
			}
			dev.Flush(0, 0, 1)
			dev.Fence(0)
			if err := attach(dev, geomOpts(32)...); err != nil {
				t.Fatalf("attach to an image without recorded geometry: %v", err)
			}
			if err := attach(dev, geomOpts(4)...); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("attach with 4 thread slots to an image without recorded geometry = %v, want ErrCorrupt (curTx's slot)", err)
			}
		})
	}
}
