package containers

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// perWordEngine runs every body on a handle that hides tm.RangeLoader, so a
// TreeMap over it reads word by word, as on an engine without LoadN.
type perWordEngine struct{ Engine }

// perWordTx has the four tm.Tx methods of the handle it wraps and nothing
// else.
type perWordTx struct{ Tx }

func (e perWordEngine) Update(fn func(Tx) uint64) uint64 {
	return e.Engine.Update(func(tx Tx) uint64 { return fn(perWordTx{tx}) })
}

func (e perWordEngine) Read(fn func(Tx) uint64) uint64 {
	return e.Engine.Read(func(tx Tx) uint64 { return fn(perWordTx{tx}) })
}

// hookedEngine runs hook on the handle before every Read body.
type hookedEngine struct {
	Engine
	hook func(tx Tx)
}

func (e hookedEngine) Read(fn func(Tx) uint64) uint64 {
	return e.Engine.Read(func(tx Tx) uint64 { e.hook(tx); return fn(tx) })
}

func newWFPTM(t *testing.T, opts ...tm.Option) Engine {
	t.Helper()
	opts = append(slices.Clone(testOpts), opts...)
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 5, opts...))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewPersistentWF(dev, false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// hasLoadN reports whether e's read-only bodies run on a tm.RangeLoader.
func hasLoadN(e Engine) bool {
	return e.Read(func(tx Tx) uint64 {
		_, ok := tx.(tm.RangeLoader)
		return boolWord(ok)
	}) == 1
}

// TestTreeMapReadRoutesAgree runs one seeded sequence of Put, Delete, Get
// and Range on two OF-WF-PTM engines: bare, where Get and Range read nodes
// through LoadN, and behind a wrapper that hides LoadN, where every read is
// per word. Every result, every CheckInvariants verdict and a model map
// must agree.
func TestTreeMapReadRoutesAgree(t *testing.T) {
	bare := newWFPTM(t)
	hidden := perWordEngine{newWFPTM(t)}
	if !hasLoadN(bare) || hasLoadN(hidden) {
		t.Fatalf("LoadN on the bare engine %v, behind the wrapper %v; want true, false", hasLoadN(bare), hasLoadN(hidden))
	}
	a, b := NewTreeMap(bare, 3), NewTreeMap(hidden, 3)
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(36))
	const keys = 3000
	for i := 0; i < 20000; i++ {
		k, v := uint64(rng.Intn(keys)), uint64(i)
		switch op := rng.Intn(20); {
		case op < 7:
			pa, oka := a.Put(k, v)
			pb, okb := b.Put(k, v)
			pm, okm := model[k]
			if pa != pb || oka != okb || oka != okm || pa != pm {
				t.Fatalf("op %d Put(%d): bare %d,%v; per-word %d,%v; model %d,%v", i, k, pa, oka, pb, okb, pm, okm)
			}
			model[k] = v
		case op < 12:
			pa, oka := a.Delete(k)
			pb, okb := b.Delete(k)
			pm, okm := model[k]
			if pa != pb || oka != okb || oka != okm || pa != pm {
				t.Fatalf("op %d Delete(%d): bare %d,%v; per-word %d,%v; model %d,%v", i, k, pa, oka, pb, okb, pm, okm)
			}
			delete(model, k)
		case op < 17:
			va, oka := a.Get(k)
			vb, okb := b.Get(k)
			vm, okm := model[k]
			if va != vb || oka != okb || oka != okm || va != vm {
				t.Fatalf("op %d Get(%d): bare %d,%v; per-word %d,%v; model %d,%v", i, k, va, oka, vb, okb, vm, okm)
			}
		default:
			hi, max := k+uint64(rng.Intn(200)), 1+rng.Intn(80)
			ra, rb := a.Range(k, hi, max), b.Range(k, hi, max)
			if want := modelRange(model, k, hi, max); !slices.Equal(ra, rb) || !slices.Equal(ra, want) {
				t.Fatalf("op %d Range(%d, %d, %d): bare %v; per-word %v; model %v", i, k, hi, max, ra, rb, want)
			}
		}
		if i%1000 == 999 {
			ea, eb := a.CheckInvariants(), b.CheckInvariants()
			if ea != nil || eb != nil {
				t.Fatalf("op %d: CheckInvariants bare %v, per-word %v", i, ea, eb)
			}
		}
	}
	if a.Len() != len(model) || b.Len() != len(model) || a.Height() != b.Height() || a.Height() < 3 {
		t.Fatalf("Len bare %d, per-word %d, model %d; Height %d, %d (want equal, ≥ 3)",
			a.Len(), b.Len(), len(model), a.Height(), b.Height())
	}
}

// modelRange is Range over a model map.
func modelRange(model map[uint64]uint64, lo, hi uint64, max int) []Entry {
	var out []Entry
	for k, v := range model {
		if k >= lo && k <= hi {
			out = append(out, Entry{Key: k, Val: v})
		}
	}
	slices.SortFunc(out, func(x, y Entry) int {
		if x.Key < y.Key {
			return -1
		}
		return 1
	})
	return out[:min(len(out), max)]
}

// TestTreeMapEscalatedReadIsPerWord forces a read through wait-free
// escalation: with ReadTries 1, a Get or Range whose first attempt is
// invalidated by a concurrent Put is published and runs on an update
// handle, which has no LoadN. The body then takes the per-word route, and
// its result must be the map after the Put.
func TestTreeMapEscalatedReadIsPerWord(t *testing.T) {
	var m *TreeMap
	var runs atomic.Int32
	var armed, escalated, rangeLoader atomic.Bool
	var parked, release chan struct{}
	e := newWFPTM(t, tm.WithReadTries(1))
	hooked := hookedEngine{Engine: e, hook: func(tx Tx) {
		if !armed.Load() {
			return
		}
		if runs.Add(1) == 1 {
			close(parked)
			<-release
			tx.Load(m.desc + tmSize) // the Put changed it: this attempt aborts
			return
		}
		_, ok := tx.(tm.RangeLoader)
		rangeLoader.Store(ok)
		escalated.Store(true)
	}}
	m = NewTreeMap(hooked, 4)
	for k := uint64(0); k < 400; k += 2 {
		m.Put(k, k+1)
	}

	for _, read := range []struct {
		name string
		do   func() bool
	}{
		{"Get", func() bool { v, ok := m.Get(201); return ok && v == 7 }},
		{"Range", func() bool {
			es := m.Range(100, 300, 200)
			if len(es) != 102 {
				return false
			}
			for _, en := range es {
				if en.Key%2 == 0 && en.Val != en.Key+1 || en.Key%2 == 1 && (en.Key != 201 || en.Val != 7) {
					return false
				}
			}
			return true
		}},
	} {
		runs.Store(0)
		escalated.Store(false)
		parked, release = make(chan struct{}), make(chan struct{})
		m.Delete(201)
		before := e.Stats()
		done := make(chan bool)
		armed.Store(true)
		go func() { done <- read.do() }()
		<-parked
		m.Put(201, 7)
		close(release)
		ok := <-done
		armed.Store(false)
		if !ok {
			t.Errorf("%s escalated beside Put(201, 7) returned a wrong result", read.name)
		}
		d := e.Stats().Sub(before)
		if !escalated.Load() || rangeLoader.Load() || d.ReadAborts != 1 {
			t.Errorf("%s: escalated %v, on a RangeLoader %v, %d read aborts; want true, false, 1",
				read.name, escalated.Load(), rangeLoader.Load(), d.ReadAborts)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
