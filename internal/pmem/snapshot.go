package pmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Snapshot format: the durable image only — exactly what would be on the
// NVM DIMM after a power loss. The paper emulates NVM with a file in
// /dev/shm; WriteTo/ReadFrom provide the same file-backed durability for
// this emulation, letting a heap survive actual process restarts.
//
// The format is backend-independent (little-endian, sized header), so a
// snapshot written by one Device implementation loads into any other with
// the same region sizes — the conformance suite round-trips images between
// the simulator and the mmap-backed file device through it.
const (
	snapMagic   = 0x0F11E_5AFE
	snapVersion = 1
)

// ErrBadSnapshot reports a malformed or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("pmem: bad snapshot")

// EncodeImage writes the portable snapshot of a persistent image to w: raw
// holds the raw-region words, pairs the pair region interleaved as
// {value, sequence} (2 words per TM word). It returns the bytes written.
func EncodeImage(w io.Writer, raw, pairs []uint64) (int64, error) {
	return encode(w, len(raw), len(pairs)/2, func(w io.Writer) error {
		if err := putWords(w, raw); err != nil {
			return err
		}
		return putWords(w, pairs)
	})
}

// DecodeImage reads a snapshot from r into raw and pairs (same layout as
// EncodeImage). The destination sizes must match the stream's header.
func DecodeImage(r io.Reader, raw, pairs []uint64) (int64, error) {
	cr := &countReader{r: bufio.NewReader(r)}
	if err := decodeHeader(cr, len(raw), len(pairs)/2); err != nil {
		return cr.n, err
	}
	if err := getWords(cr, raw); err != nil {
		return cr.n, err
	}
	return cr.n, getWords(cr, pairs)
}

// encode writes the header of a snapshot of the given region sizes to w, and
// then whatever body writes: the raw words, then the pair words.
func encode(w io.Writer, rawWords, pairWords int, body func(io.Writer) error) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := putWords(cw, []uint64{snapMagic, snapVersion, uint64(rawWords), uint64(pairWords)}); err != nil {
		return cw.n, err
	}
	if err := body(cw); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// decodeHeader reads a snapshot's header from r and holds it to the region
// sizes.
func decodeHeader(r io.Reader, rawWords, pairWords int) error {
	var hdr [4]uint64
	if err := getWords(r, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != snapMagic || hdr[1] != snapVersion {
		return fmt.Errorf("%w: magic/version mismatch", ErrBadSnapshot)
	}
	if hdr[2] != uint64(rawWords) || hdr[3] != uint64(pairWords) {
		return fmt.Errorf("%w: sized for %d/%d words, device has %d/%d",
			ErrBadSnapshot, hdr[2], hdr[3], rawWords, pairWords)
	}
	return nil
}

// putWords writes words to w, little-endian.
func putWords(w io.Writer, words []uint64) error {
	var buf [4096]byte
	for len(words) > 0 {
		k := min(len(words), len(buf)/8)
		for i, v := range words[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		words = words[k:]
	}
	return nil
}

// zeroWords is what putWords writes for the part of an image no unit holds.
var zeroWords [512]uint64

// getWords fills words from r, little-endian.
func getWords(r io.Reader, words []uint64) error {
	var buf [4096]byte
	for len(words) > 0 {
		k := min(len(words), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return err
		}
		for i := range words[:k] {
			words[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		words = words[k:]
	}
	return nil
}

// WriteTo serialises the device's persistent image, zeros where no unit of
// it is held. The device must be quiescent. It implements io.WriterTo.
func (d *Sim) WriteTo(w io.Writer) (int64, error) {
	d.settle()
	return encode(w, d.raw.n, d.pair.n/2, func(w io.Writer) error {
		if err := d.raw.encode(w); err != nil {
			return err
		}
		return d.pair.encode(w)
	})
}

// ReadFrom loads a snapshot into the device's image (which must have
// matching region sizes; quiescence required), drops the buffered flushes,
// counts as written exactly the chunks of the image that now hold a non-zero
// word (WrittenPairs), holds in memory only the units those lie in, resets
// the volatile view to the image, as after Crash, and syncs the backing. It
// does all of that on a decode error too: a stream that passes the header
// check and then ends short has already overwritten part of the image, and
// the device is left consistent with whatever the image now holds. It
// implements io.ReaderFrom.
func (d *Sim) ReadFrom(r io.Reader) (int64, error) {
	d.settle() // a stream refused at its header leaves the image as it was
	cr := &countReader{r: bufio.NewReader(r)}
	err := decodeHeader(cr, d.raw.n, d.pair.n/2)
	if err == nil {
		if err = d.raw.decode(cr); err == nil {
			err = d.pair.decode(cr)
		}
	}
	d.reload()
	if d.backing != nil {
		d.backing.Dirtied(RawImage, 0, d.raw.n)
		d.backing.Dirtied(PairImage, 0, d.pair.n)
		if serr := d.sync(); err == nil && serr != nil {
			err = serr
		}
	}
	return cr.n, err
}

// encode writes the image's words to w: each unit's, and zeros for a unit
// that is absent.
func (m *image) encode(w io.Writer) error {
	for u := range m.units {
		if words := m.unit(u); words != nil {
			if err := putWords(w, words); err != nil {
				return err
			}
			continue
		}
		for n := m.unitLen(u); n > 0; n -= len(zeroWords) {
			if err := putWords(w, zeroWords[:min(n, len(zeroWords))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode reads the image's words from r chunk by chunk. A chunk that holds a
// non-zero word is written to its unit, allocated if absent, and counts as
// written; one that holds only zeros is cleared where its unit is present
// and counts as unwritten. On an error the chunks not reached keep what they
// held. Then an allocated unit in which no chunk counts as written is
// dropped: it holds only zeros.
func (m *image) decode(r io.Reader) error {
	defer m.drop()
	buf := make([]uint64, min(m.chunk, m.n))
	for c := range m.held {
		lo := c * m.chunk
		words := buf[:min(m.chunk, m.n-lo)]
		if err := getWords(r, words); err != nil {
			return err
		}
		u := lo >> m.shift
		off := lo - u<<m.shift
		nonZero := slices.ContainsFunc(words, func(w uint64) bool { return w != 0 })
		if nonZero {
			copy(m.write(u)[off:], words)
		} else if img := m.unit(u); img != nil {
			clear(img[off : off+len(words)])
		}
		m.held[c].Store(nonZero)
	}
	return nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
