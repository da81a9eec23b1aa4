package pmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
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
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	hdr := []uint64{snapMagic, snapVersion, uint64(len(raw)), uint64(len(pairs) / 2)}
	for _, h := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, h); err != nil {
			return cw.n, err
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, raw); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, pairs); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// DecodeImage reads a snapshot from r into raw and pairs (same layout as
// EncodeImage). The destination sizes must match the stream's header.
func DecodeImage(r io.Reader, raw, pairs []uint64) (int64, error) {
	br := bufio.NewReader(r)
	cr := &countReader{r: br}
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(cr, binary.LittleEndian, &hdr[i]); err != nil {
			return cr.n, err
		}
	}
	if hdr[0] != snapMagic || hdr[1] != snapVersion {
		return cr.n, fmt.Errorf("%w: magic/version mismatch", ErrBadSnapshot)
	}
	if hdr[2] != uint64(len(raw)) || hdr[3] != uint64(len(pairs)/2) {
		return cr.n, fmt.Errorf("%w: sized for %d/%d words, device has %d/%d",
			ErrBadSnapshot, hdr[2], hdr[3], len(raw), len(pairs)/2)
	}
	if err := binary.Read(cr, binary.LittleEndian, raw); err != nil {
		return cr.n, err
	}
	if err := binary.Read(cr, binary.LittleEndian, pairs); err != nil {
		return cr.n, err
	}
	return cr.n, nil
}

// WriteTo serialises the device's persistent image. The device must be
// quiescent. It implements io.WriterTo.
func (d *Sim) WriteTo(w io.Writer) (int64, error) {
	d.settle()
	return EncodeImage(w, d.rawImg, d.pairImg)
}

// ReadFrom loads a snapshot into the device's image (which must have
// matching region sizes; quiescence required), drops the buffered flushes,
// counts as written exactly the chunks of the image that now hold a non-zero
// word (WrittenPairs), resets the volatile view to the image, as after Crash,
// and syncs the backing. It does all of that on a decode error too: a stream
// that passes the header check and then ends short has already overwritten
// part of the image, and the device is left consistent with whatever the
// image now holds. It implements io.ReaderFrom.
func (d *Sim) ReadFrom(r io.Reader) (int64, error) {
	d.settle() // a stream refused at its header leaves the image as it was
	n, err := DecodeImage(r, d.rawImg, d.pairImg)
	holdNonZero(d.rawHeld, d.rawImg, rawChunkWords)
	holdNonZero(d.pairHeld, d.pairImg, 2*PairChunkWords)
	d.reload()
	if d.backing != nil {
		d.backing.Dirtied(RawImage, 0, len(d.rawImg))
		d.backing.Dirtied(PairImage, 0, len(d.pairImg))
		if serr := d.sync(); err == nil && serr != nil {
			err = serr
		}
	}
	return n, err
}

// holdNonZero sets the flag of every chunk of img (chunk words each) that
// holds a non-zero word and clears the others'.
func holdNonZero(held []atomic.Bool, img []uint64, chunk int) {
	for c := range held {
		part := img[c*chunk : min((c+1)*chunk, len(img))]
		held[c].Store(slices.ContainsFunc(part, func(w uint64) bool { return w != 0 }))
	}
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
