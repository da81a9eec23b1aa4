package crashcheck

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/testutil"
	"onefile/internal/tm"
)

// TestAttachRejectsWordBeyondCurTx: null recovery rests on durable words
// never running ahead of the durable curTx (§III-D). An image that breaks
// it — a damaged file, or one written by a build that still had the small
// commit — is refused with ErrCorrupt naming both sequences, on both
// backends; it must not become an engine whose loads of that word abort
// forever.
func TestAttachRejectsWordBeyondCurTx(t *testing.T) {
	for _, backend := range []struct {
		name string
		fac  DeviceFactory
	}{{"sim", nil}, {"file", fileFactory(testutil.TmpfsDir(t))}} {
		for _, name := range []string{"OF-LF-PTM", "OF-WF-PTM"} {
			t.Run(backend.name+"/"+name, func(t *testing.T) {
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
	}
}
