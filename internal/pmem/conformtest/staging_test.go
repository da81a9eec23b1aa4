package conformtest

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"onefile/internal/pmem"
)

// The model stages pair-line write-backs per slot and merges them at the
// slot's next ordering point. This file holds StrictMode to what it
// promises all the same: no observer can tell it from a device that writes
// every pwb through at once. The one thing the equivalence leans on is the
// engine's: a word's value at a given sequence is unique. Every program here
// keeps to it by deriving a pair's value from its word and sequence.

func pairVal(idx int, seq uint64) uint64 {
	return (uint64(idx)<<32 | seq) * 0x9E3779B97F4A7C15
}

// wtModel is the reference: the write-through device StrictMode used to be.
// A pwb reaches the image when it is issued; ordering points add nothing.
type wtModel struct {
	vol, raw []uint64
	pairs    []uint64 // interleaved {value, sequence}, as the image holds them
}

func newWTModel(cfg pmem.Config) *wtModel {
	return &wtModel{
		vol:   make([]uint64, cfg.RawWords),
		raw:   make([]uint64, cfg.RawWords),
		pairs: make([]uint64, 2*cfg.PairWords),
	}
}

func (m *wtModel) flushPair(idx int, seq uint64) {
	if seq >= m.pairs[2*idx+1] {
		m.pairs[2*idx], m.pairs[2*idx+1] = pairVal(idx, seq), seq
	}
}

func (m *wtModel) image(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := pmem.EncodeImage(&buf, m.raw, m.pairs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type wtKind int

const (
	wtStore wtKind = iota
	wtFlush
	wtPair
	wtLine
	wtBurst // more FlushPairs on one slot than the staging bound, no ordering point
	wtFence
	wtDrain
)

// wtOp is one step of a program. Its persistence events are numbered: a
// Flush is one per line, a burst one per pair, everything else at most one.
type wtOp struct {
	kind   wtKind
	slot   int
	off, n int    // wtStore: word off; wtFlush: words [off, off+n)
	val    uint64 // wtStore
	cnt    int    // wtPair 1, wtLine 1..4, wtBurst many
	idx    []int
	seqs   []uint64
}

func (op *wtOp) events() int {
	switch op.kind {
	case wtStore:
		return 0
	case wtFlush:
		return (op.off+op.n-1)/pmem.LineWords - op.off/pmem.LineWords + 1
	case wtBurst:
		return op.cnt
	}
	return 1
}

func wtProgram(seed int64, steps int, cfg pmem.Config) []wtOp {
	rng := rand.New(rand.NewSource(seed))
	pairs := func(op *wtOp, line int) {
		for j := 0; j < op.cnt; j++ {
			op.idx = append(op.idx, (line*pmem.PairLineWords+j)%cfg.PairWords)
			// A small range: stale flushes meet the guard, equal ones each other.
			op.seqs = append(op.seqs, uint64(rng.Intn(12)))
		}
	}
	prog := make([]wtOp, steps)
	for i := range prog {
		op := &prog[i]
		op.slot = rng.Intn(cfg.MaxSlots)
		switch r := rng.Intn(100); {
		case r < 20:
			op.kind, op.off, op.val = wtStore, rng.Intn(cfg.RawWords), rng.Uint64()
		case r < 32:
			op.kind, op.off = wtFlush, rng.Intn(cfg.RawWords)
			op.n = 1 + rng.Intn(min(20, cfg.RawWords-op.off))
		case r < 60:
			op.kind, op.cnt = wtPair, 1
			op.idx, op.seqs = []int{rng.Intn(cfg.PairWords)}, []uint64{uint64(rng.Intn(12))}
		case r < 86:
			op.kind, op.cnt = wtLine, 1+rng.Intn(pmem.PairLineWords)
			pairs(op, rng.Intn(cfg.PairWords/pmem.PairLineWords))
		case r < 88:
			op.kind, op.cnt = wtBurst, 70+rng.Intn(10)
			for j := 0; j < op.cnt; j++ {
				op.idx = append(op.idx, rng.Intn(cfg.PairWords))
				op.seqs = append(op.seqs, uint64(rng.Intn(12)))
			}
		case r < 94:
			op.kind = wtFence
		default:
			op.kind = wtDrain
		}
	}
	return prog
}

// exec issues op on d.
func (op *wtOp) exec(d pmem.Device) {
	switch op.kind {
	case wtStore:
		d.RawStore(op.off, op.val)
	case wtFlush:
		d.Flush(op.slot, op.off, op.n)
	case wtPair:
		d.FlushPair(op.slot, op.idx[0], pairVal(op.idx[0], op.seqs[0]), op.seqs[0])
	case wtLine:
		var idx [pmem.PairLineWords]int
		var vals, seqs [pmem.PairLineWords]uint64
		for j := 0; j < op.cnt; j++ {
			idx[j], vals[j], seqs[j] = op.idx[j], pairVal(op.idx[j], op.seqs[j]), op.seqs[j]
		}
		d.FlushPairLine(op.slot, op.cnt, &idx, &vals, &seqs)
	case wtBurst:
		for j := 0; j < op.cnt; j++ {
			d.FlushPair(op.slot, op.idx[j], pairVal(op.idx[j], op.seqs[j]), op.seqs[j])
		}
	case wtFence:
		d.Fence(op.slot)
	case wtDrain:
		d.Drain(op.slot)
	}
}

// apply gives the model op's first done events (all of them if done < 0).
func (op *wtOp) apply(m *wtModel, done int) {
	if done < 0 {
		done = op.events()
	}
	switch op.kind {
	case wtStore:
		m.vol[op.off] = op.val
	case wtFlush:
		first := op.off / pmem.LineWords
		for l := first; l < first+done; l++ {
			lo := l * pmem.LineWords
			hi := min(lo+pmem.LineWords, len(m.raw))
			copy(m.raw[lo:hi], m.vol[lo:hi])
		}
	case wtPair, wtLine:
		if done > 0 {
			for j := 0; j < op.cnt; j++ {
				m.flushPair(op.idx[j], op.seqs[j])
			}
		}
	case wtBurst:
		for j := 0; j < done; j++ {
			m.flushPair(op.idx[j], op.seqs[j])
		}
	}
}

func wtCfg() pmem.Config {
	return pmem.Config{RawWords: 256, PairWords: 64, Mode: pmem.StrictMode, MaxSlots: 4, Seed: 1}
}

// TestStrictIsWriteThroughToObservers runs a seeded program over several
// slots and compares the image — word by word through ImagePair, whole
// through WriteTo — with the write-through reference. Looking merges what is
// staged, so the longer strides are the ones that let lines pile up, past
// one chunk and past the staging bound, before anyone looks.
func TestStrictIsWriteThroughToObservers(t *testing.T) {
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		for _, stride := range []int{1, 7, 60} {
			cfg := wtCfg()
			prog := wtProgram(int64(stride), 1200, cfg)
			d, m := mk(t, cfg), newWTModel(cfg)
			for i := range prog {
				prog[i].exec(d)
				prog[i].apply(m, -1)
				if (i+1)%stride != 0 && i != len(prog)-1 {
					continue
				}
				for idx := 0; idx < cfg.PairWords; idx++ {
					if v, s := d.ImagePair(idx); v != m.pairs[2*idx] || s != m.pairs[2*idx+1] {
						t.Fatalf("stride %d step %d: pair %d = (%#x,%d), write-through has (%#x,%d)",
							stride, i, idx, v, s, m.pairs[2*idx], m.pairs[2*idx+1])
					}
				}
				if !bytes.Equal(snapshotOf(t, d), m.image(t)) {
					t.Fatalf("stride %d step %d: snapshot differs from the write-through image", stride, i)
				}
			}
		}
	})
}

type wtCrash struct{}

// TestStrictCrashKeepsEveryPostedPwb injects a crash, by hook, before every
// persistence event of a program in turn: the image after Crash is the
// write-through image of exactly the events before it — every pwb posted,
// fenced or not, and nothing of the one the hook stopped — and the volatile
// raw view is reloaded from it.
func TestStrictCrashKeepsEveryPostedPwb(t *testing.T) {
	cfg := wtCfg()
	prog := wtProgram(99, 160, cfg)
	total := 0
	for i := range prog {
		total += prog[i].events()
	}
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		for crashAt := 0; crashAt < total; crashAt++ {
			d, m := mk(t, cfg), newWTModel(cfg)
			seen := 0
			d.SetHook(func(pmem.Event) {
				if seen == crashAt {
					panic(wtCrash{})
				}
				seen++
			})
			for i := range prog {
				before := seen
				crashed := func() (crashed bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(wtCrash); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					prog[i].exec(d)
					return false
				}()
				if !crashed {
					prog[i].apply(m, -1)
					continue
				}
				prog[i].apply(m, seen-before)
				break
			}
			d.SetHook(nil)
			d.Crash()
			copy(m.vol, m.raw)
			if !bytes.Equal(snapshotOf(t, d), m.image(t)) {
				t.Fatalf("crash before event %d: image differs from the write-through image", crashAt)
			}
			for off := range m.vol {
				if got := d.RawLoad(off); got != m.vol[off] {
					t.Fatalf("crash before event %d: raw word %d reloaded as %#x, image has %#x", crashAt, off, got, m.vol[off])
				}
			}
			d.Close() // the file backend: do not hold hundreds of mappings
		}
	})
}

// lineCounter is a Backing that counts the pair lines the model reports.
type lineCounter struct{ lines int }

func (b *lineCounter) Dirtied(region pmem.Region, word, n int) {
	if region == pmem.PairImage {
		b.lines++
	}
}
func (b *lineCounter) Sync() error { return nil }

// TestStrictStagingIsBounded: a slot that never reaches an ordering point
// stages in constant space. A million FlushPairs on one slot grow the live
// heap by less than 64 KiB on every backend, and over a counting backing —
// every flush a new line at a new sequence, so every merge writes and is
// reported — the lines posted and not yet reported never exceed the bound.
func TestStrictStagingIsBounded(t *testing.T) {
	const (
		flushes = 1 << 20
		bound   = 64 // pmem's maxStaged
	)
	cfg := pmem.Config{RawWords: 8, PairWords: 1 << 12, Mode: pmem.StrictMode, MaxSlots: 2, Seed: 1}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func(t *testing.T, d pmem.Device, staged func(posted int) int) {
		before := liveHeap()
		for i := 0; i < flushes; i++ {
			idx := i * pmem.PairLineWords % cfg.PairWords
			d.FlushPair(0, idx, pairVal(idx, uint64(i+1)), uint64(i+1))
			if staged != nil {
				if n := staged(i + 1); n > bound {
					t.Fatalf("after %d flushes %d lines are staged, bound is %d", i+1, n, bound)
				}
			}
		}
		if grew := int64(liveHeap()) - int64(before); grew >= 64<<10 {
			t.Errorf("live heap grew by %d bytes over %d flushes with no ordering point", grew, flushes)
		}
		last := (flushes - 1) * pmem.PairLineWords % cfg.PairWords
		if v, s := d.ImagePair(last); s != flushes || v != pairVal(last, flushes) {
			t.Errorf("last flush not in the image: pair %d = (%#x,%d)", last, v, s)
		}
		runtime.KeepAlive(d)
	}
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		run(t, mk(t, cfg), nil)
	})
	t.Run("counted", func(t *testing.T) {
		b := &lineCounter{}
		d, err := pmem.NewOver(cfg, make([]uint64, cfg.RawWords), make([]uint64, 2*cfg.PairWords), b, true)
		if err != nil {
			t.Fatal(err)
		}
		run(t, d, func(posted int) int { return posted - b.lines })
		if b.lines == 0 {
			t.Error("the backing heard of no line: staged length was not observed")
		}
	})
}

// TestConcurrentMergersKeepTheNewest: several slots flush, shuffled and
// interleaved, every sequence 1..top of the same 64 words — single pairs and
// whole lines — and drain now and then. Whatever order the merges land in,
// each word ends at the highest sequence with that sequence's value.
func TestConcurrentMergersKeepTheNewest(t *testing.T) {
	const (
		slots = 4
		words = 64
		top   = 48
	)
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, pmem.Config{RawWords: 8, PairWords: words, Mode: pmem.StrictMode, MaxSlots: slots, Seed: 1})
		// Deal every (line, sequence) to a slot; each slot shuffles its hand.
		type flush struct {
			line int
			seq  uint64
		}
		hands := make([][]flush, slots)
		rng := rand.New(rand.NewSource(3))
		for line := 0; line < words/pmem.PairLineWords; line++ {
			for seq := uint64(1); seq <= top; seq++ {
				s := rng.Intn(slots)
				hands[s] = append(hands[s], flush{line, seq})
			}
		}
		var wg sync.WaitGroup
		for s := range hands {
			hand := hands[s]
			rng.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
			wg.Add(1)
			go func(slot int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for _, f := range hand {
					base := f.line * pmem.PairLineWords
					if rng.Intn(2) == 0 {
						var idx [pmem.PairLineWords]int
						var vals, seqs [pmem.PairLineWords]uint64
						for j := range idx {
							idx[j], vals[j], seqs[j] = base+j, pairVal(base+j, f.seq), f.seq
						}
						d.FlushPairLine(slot, pmem.PairLineWords, &idx, &vals, &seqs)
					} else {
						for j := 0; j < pmem.PairLineWords; j++ {
							d.FlushPair(slot, base+j, pairVal(base+j, f.seq), f.seq)
						}
					}
					if rng.Intn(24) == 0 {
						d.Drain(slot)
					}
				}
				d.Drain(slot)
			}(s, int64(s))
		}
		wg.Wait()
		for idx := 0; idx < words; idx++ {
			if v, s := d.ImagePair(idx); s != top || v != pairVal(idx, top) {
				t.Errorf("pair %d = (%#x,%d), want sequence %d and its value %#x", idx, v, s, top, pairVal(idx, top))
			}
		}
	})
}

// TestOpposedChunksDoNotDeadlock: two slots post the same lines in opposite
// orders and drain, so each merge needs the locks the other holds some of.
// Both take them in ascending shard order whatever the posting order, so
// every round finishes; a lock taken in posting order hangs this within a
// few rounds.
func TestOpposedChunksDoNotDeadlock(t *testing.T) {
	const (
		rounds = 10000
		lines  = 8
	)
	forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
		d := mk(t, pmem.Config{RawWords: 8, PairWords: lines * pmem.PairLineWords, Mode: pmem.StrictMode, MaxSlots: 2, Seed: 1})
		done := make(chan struct{})
		var wg sync.WaitGroup
		for slot := 0; slot < 2; slot++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for r := 1; r <= rounds; r++ {
					seq := uint64(2*r + slot)
					for i := 0; i < lines; i++ {
						line := i
						if slot == 1 {
							line = lines - 1 - i
						}
						idx := line * pmem.PairLineWords
						d.FlushPair(slot, idx, pairVal(idx, seq), seq)
					}
					d.Drain(slot)
				}
			}(slot)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("two slots merging the same %d lines in opposite orders did not finish %d rounds in 10 s", lines, rounds)
		}
		for line := 0; line < lines; line++ {
			idx := line * pmem.PairLineWords
			if v, s := d.ImagePair(idx); s != 2*rounds+1 || v != pairVal(idx, s) {
				t.Errorf("pair %d = (%#x,%d), want sequence %d", idx, v, s, 2*rounds+1)
			}
		}
	})
}
