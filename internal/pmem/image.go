package pmem

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"onefile/internal/hugepage"
)

// An image is held in units, each allocated by the first write that reaches
// it: a unit no write reached is absent and reads as zeros, so an image of
// which a workload writes a third holds a third in memory. A unit is a whole
// number of chunks, so a written chunk lies in one unit.
const (
	// pairUnitWords is the unit of the pair image, in TM words (4 MiB): 16
	// chunks, and two huge pages, which write advises whole.
	pairUnitWords = 1 << 18
	// rawUnitWords is the unit of the raw image, in words: one chunk.
	rawUnitWords = rawChunkWords
)

// image is one of the device's persistent images: n 64-bit words in units of
// 1<<shift words (the last one short), with one written flag per chunk words.
//
// Every write reaches memory through write, which allocates the unit, and
// then sets its chunk's flag (hold), so a chunk is never written without its
// unit existing; every read goes through unit, load or read, which find zeros
// where a unit is absent. An image over memory the caller owns (NewOver) has
// every unit from the start, as slices of that memory: one read and write
// path, and only construction differs.
type image struct {
	n, chunk int
	shift    uint                       // a unit is 1<<shift words
	mask     int                        // 1<<shift - 1
	units    []atomic.Pointer[[]uint64] // each unit's words; nil: absent
	held     []atomic.Bool              // one per chunk: a write reached it
	owned    bool                       // units are allocated on write, not the caller's
	mu       sync.Mutex                 // serialises allocation
}

// init makes m an image of n words in units of unit words, chunks of chunk
// words; both are powers of two, unit a multiple of chunk. over is the
// caller's memory for it (n words), installed as every unit; nil means units
// are allocated on write.
func (m *image) init(n, unit, chunk int, over []uint64) {
	m.n, m.chunk = n, chunk
	m.shift, m.mask = uint(bits.TrailingZeros(uint(unit))), unit-1
	m.units = make([]atomic.Pointer[[]uint64], (n+unit-1)>>m.shift)
	m.held = make([]atomic.Bool, (n+chunk-1)/chunk)
	m.owned = over == nil
	for u := range m.units {
		if over != nil {
			w := over[u<<m.shift : u<<m.shift+m.unitLen(u)]
			m.units[u].Store(&w)
		}
	}
}

// unitLen is the length of unit u.
func (m *image) unitLen(u int) int { return min(1<<m.shift, m.n-u<<m.shift) }

// unit returns the words of unit u, nil if it is absent.
func (m *image) unit(u int) []uint64 {
	if p := m.units[u].Load(); p != nil {
		return *p
	}
	return nil
}

// write returns the words of unit u, allocated if absent: zeroed, and advised
// onto huge pages (package hugepage) — merges reach it at random. The advice
// covers every huge page the unit reaches into (hugepage.AdviseWhole): the
// runtime lays units side by side at no particular huge-page offset, and
// advice on whole pages inside one alone would leave the page astride every
// two units, and so up to half of each unit, on 4 KiB pages.
func (m *image) write(u int) []uint64 {
	p := m.units[u].Load()
	if p == nil {
		p = m.alloc(u)
	}
	return *p
}

// alloc is write's path for a unit it found absent.
func (m *image) alloc(u int) *[]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.units[u].Load(); p != nil {
		return p
	}
	w := make([]uint64, m.unitLen(u))
	hugepage.AdviseWhole(w)
	m.units[u].Store(&w)
	return &w
}

// load returns word i.
func (m *image) load(i int) uint64 {
	if w := m.unit(i >> m.shift); w != nil {
		return w[i&m.mask]
	}
	return 0
}

// read returns words [lo, hi): in place if they lie in one unit that is
// present, otherwise a copy with zeros where units are absent.
func (m *image) read(lo, hi int) []uint64 {
	if u := lo >> m.shift; hi > lo && (hi-1)>>m.shift == u {
		if w := m.unit(u); w != nil {
			return w[lo-u<<m.shift : hi-u<<m.shift]
		}
	}
	out := make([]uint64, hi-lo)
	for at := lo; at < hi; {
		u := at >> m.shift
		end := min(hi, (u+1)<<m.shift)
		if w := m.unit(u); w != nil {
			copy(out[at-lo:end-lo], w[at-u<<m.shift:])
		}
		at = end
	}
	return out
}

// hold sets chunk c's flag. It reads the flag first: set once, a flag is only
// read, and its line stays shared by every core that merges into the image.
func (m *image) hold(c int) {
	if !m.held[c].Load() {
		m.held[c].Store(true)
	}
}

// holdAll sets every chunk's flag: the image's content is unknown.
func (m *image) holdAll() {
	for c := range m.held {
		m.held[c].Store(true)
	}
}

// spans returns the runs of written chunks as ascending, disjoint spans of
// words, each inside one unit: runs are cut where units meet, and touch only
// there.
func (m *image) spans() []Span {
	var spans []Span
	for c := range m.held {
		if !m.held[c].Load() {
			continue
		}
		lo, hi := c*m.chunk, min((c+1)*m.chunk, m.n)
		if k := len(spans) - 1; k >= 0 && spans[k].Hi == lo && lo&m.mask != 0 {
			spans[k].Hi = hi
		} else {
			spans = append(spans, Span{lo, hi})
		}
	}
	return spans
}

// drop removes every allocated unit that no written chunk lies in: it holds
// only zeros. Quiescence required.
func (m *image) drop() {
	if !m.owned {
		return
	}
	per := (m.mask + 1) / m.chunk
	for u := range m.units {
		held := false
		for c := u * per; c < min((u+1)*per, len(m.held)) && !held; c++ {
			held = m.held[c].Load()
		}
		if !held {
			m.units[u].Store(nil)
		}
	}
}

// ImageMem is what one persistent image holds in memory against what it is
// configured to hold.
type ImageMem struct {
	Units, UnitsMax int   // units present, units configured
	Bytes, BytesMax int64 // their bytes
}

func (m *image) mem() ImageMem {
	s := ImageMem{UnitsMax: len(m.units), BytesMax: 8 * int64(m.n)}
	for u := range m.units {
		if m.units[u].Load() != nil {
			s.Units++
			s.Bytes += 8 * int64(m.unitLen(u))
		}
	}
	return s
}
