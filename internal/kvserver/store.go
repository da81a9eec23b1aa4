// Package kvserver is the network-facing durable key-value service: a
// RESP-protocol server (GET/SET/DEL/INCR/MGET/SCAN, pipelining) that runs
// every pipelined window of a connection as one transaction on a OneFile
// engine, so a window shares one commit pipeline and one
// persistence-fence round (DESIGN.md §10). cmd/onefile-kv is the
// binary; internal/bench drives it over real sockets for the YCSB-style
// service benchmarks.
//
// This file is the storage layout: a string-keyed hash index living
// entirely in the transactional heap, so the persistent engines make it
// durable and crash-recoverable with no extra code. Every word — bucket
// directory, bucket heads, entry fields, key and value bytes — is an
// ordinary TM word, and every mutation happens inside the enclosing
// transaction.
//
// Heap layout (word addresses are tm.Ptr):
//
//	Root(0)  → directory block: one word per segment, each a pointer to a
//	           segment of bucketsPerSeg bucket-head words (0 = not yet
//	           allocated — segments materialise on first insert).
//	Root(1)  → live key count.
//	Root(2)  → bucket count (set once at init; readers derive the mask).
//
// An entry is one allocated block:
//
//	e+0  next entry in bucket chain (0 = end)
//	e+1  full 64-bit key hash (saves key compares on lookup)
//	e+2  lens: keyLen | valLen<<16  (bytes)
//	e+3… key bytes packed 8 per word, then value bytes likewise
//
// Keys and values are capped (MaxKeyLen, MaxValLen) so the largest entry
// fits the allocator's biggest size class and a single SET can never
// overflow a sanely configured write-set.
package kvserver

import (
	"encoding/binary"
	"errors"
	"slices"
	"strconv"

	"onefile/internal/tm"
)

// Size caps. An entry of maximal key+value is 3 + 512 + 2048 + 1 header
// words — inside talloc.MaxPayload with room to spare.
const (
	MaxKeyLen = 4 << 10  // bytes
	MaxValLen = 16 << 10 // bytes

	bucketsPerSeg = 1 << 10 // bucket heads per directory segment
	maxBuckets    = 1 << 22 // directory of 4096 segment words
	// scanBucketBudget bounds how many bucket chains one SCAN step walks,
	// so a scan over a sparse table stays a short read transaction.
	scanBucketBudget = 2048
	// scanKeysOnStack is how many keys a SCAN step gathers on the stack
	// before its list moves to the heap: the list is allocated for the
	// keys found, never for COUNT, which is the client's and may be any
	// positive int.
	scanKeysOnStack = 64
	// valueBufSize is the initial size of the buffer one body execution
	// reads GET values and SCAN keys into: a 32-command window of 64-byte
	// values fits without growing it. A larger buffer saves a SCAN-heavy
	// window its growth but costs every window that reads less.
	valueBufSize = 2 << 10
)

// Root slots used by the index. They are below shard.UserRoots, so the same
// layout works on every shard of a sharded store.
const (
	rootDir     = 0
	rootCount   = 1
	rootBuckets = 2
)

// Errors surfaced to clients as RESP error replies.
var (
	// ErrNotInteger reports INCR on a value that is not a decimal integer.
	ErrNotInteger = errors.New("ERR value is not an integer or out of range")
	// ErrTooLarge reports a key or value above the size caps.
	ErrTooLarge = errors.New("ERR key or value exceeds size limit")
)

// Index is the descriptor of a heap-resident hash table. It holds only
// sizing (the data lives in the engine's heap), so one Index value can be
// shared by every transaction and, in a sharded store, by every shard.
type Index struct {
	buckets uint64 // power of two
	segs    int
}

// NewIndex returns a descriptor for a table of at least buckets buckets
// (rounded up to a power of two, clamped to [bucketsPerSeg, maxBuckets]).
func NewIndex(buckets int) *Index {
	n := uint64(bucketsPerSeg)
	for n < uint64(buckets) && n < maxBuckets {
		n <<= 1
	}
	return &Index{buckets: n, segs: int(n / bucketsPerSeg)}
}

// Buckets returns the bucket count of the table.
func (ix *Index) Buckets() uint64 { return ix.buckets }

// HashKey is the key hash used for bucket placement and, in the sharded
// service, shard routing (FNV-1a 64).
func HashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// InitTx makes the table's directory exist. It runs inside an update
// transaction, is idempotent, and verifies that an existing table (a
// recovered image) was created with the same bucket count.
func (ix *Index) InitTx(tx tm.Tx) {
	if got := tx.Load(tm.Root(rootBuckets)); got != 0 {
		if got != ix.buckets {
			panic(errors.New("kvserver: store was created with a different bucket count"))
		}
		return
	}
	dir := tx.Alloc(ix.segs)
	tx.Store(tm.Root(rootDir), uint64(dir))
	tx.Store(tm.Root(rootBuckets), ix.buckets)
}

// bucketSlot returns the heap word holding bucket b's chain head, or 0 if
// the covering segment does not exist and create is false.
func (ix *Index) bucketSlot(tx tm.Tx, b uint64, create bool) tm.Ptr {
	dir := tm.Ptr(tx.Load(tm.Root(rootDir)))
	segWord := dir + tm.Ptr(b/bucketsPerSeg)
	seg := tm.Ptr(tx.Load(segWord))
	if seg == 0 {
		if !create {
			return 0
		}
		seg = tx.Alloc(bucketsPerSeg)
		tx.Store(segWord, uint64(seg))
	}
	return seg + tm.Ptr(b%bucketsPerSeg)
}

func wordsFor(n int) int { return (n + 7) / 8 }

// packWord returns up to 8 bytes of b as a little-endian word.
func packWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

func storeBytes(tx tm.Tx, p tm.Ptr, b []byte) {
	for ; len(b) > 0; p++ {
		tx.Store(p, packWord(b))
		b = b[min(8, len(b)):]
	}
}

// readBytes appends the n bytes stored from word p on to *buf, one
// transactional Load per word, and returns them as a sub-slice of *buf
// whose capacity ends at its length: a later append to *buf never writes
// through it. When an append outgrows *buf's array, the bytes returned
// before still point into the old array, which nothing writes again. So
// every value and key one body execution reads lands in the execution's
// one buffer (Index.apply), not in an allocation of its own.
func readBytes(tx tm.Tx, buf *[]byte, p tm.Ptr, n int) []byte {
	b := slices.Grow(*buf, wordsFor(n)*8)
	off := len(b)
	for i := 0; i < n; i += 8 {
		b = binary.LittleEndian.AppendUint64(b, tx.Load(p+tm.Ptr(i/8)))
	}
	*buf = b[:off+n]
	return b[off : off+n : off+n]
}

// entry field offsets.
const (
	fNext = 0
	fHash = 1
	fLens = 2
	fKey  = 3
)

func entryLens(v uint64) (keyLen, valLen int) {
	return int(v & 0xFFFF), int(v >> 16)
}

// keyEqual reports whether the entry at e holds key (hash already matched).
func keyEqual(tx tm.Tx, e tm.Ptr, key []byte) bool {
	kl, _ := entryLens(tx.Load(e + fLens))
	if kl != len(key) {
		return false
	}
	for i := 0; i < kl; i += 8 {
		if tx.Load(e+fKey+tm.Ptr(i/8)) != packWord(key[i:]) {
			return false
		}
	}
	return true
}

// find walks bucket b's chain for key, returning the word that points at
// the entry (bucket head or predecessor's next field) and the entry itself,
// or (0, 0) if absent. slot is the bucket head word (0 = segment absent).
func (ix *Index) find(tx tm.Tx, slot tm.Ptr, h uint64, key []byte) (prevLink, e tm.Ptr) {
	if slot == 0 {
		return 0, 0
	}
	link := slot
	for {
		e = tm.Ptr(tx.Load(link))
		if e == 0 {
			return 0, 0
		}
		if tx.Load(e+fHash) == h && keyEqual(tx, e, key) {
			return link, e
		}
		link = e + fNext
	}
}

// GetTx returns key's value, or ok=false. Read-only: safe under
// Engine.Read. The value is an allocation of its own; Index.apply reads
// through get into its execution's buffer instead.
func (ix *Index) GetTx(tx tm.Tx, h uint64, key []byte) (val []byte, ok bool) {
	return ix.get(tx, new([]byte), h, key)
}

// get is GetTx with the value appended to *buf (see readBytes).
func (ix *Index) get(tx tm.Tx, buf *[]byte, h uint64, key []byte) (val []byte, ok bool) {
	slot := ix.bucketSlot(tx, h&(ix.buckets-1), false)
	_, e := ix.find(tx, slot, h, key)
	if e == 0 {
		return nil, false
	}
	kl, vl := entryLens(tx.Load(e + fLens))
	return readBytes(tx, buf, e+fKey+tm.Ptr(wordsFor(kl)), vl), true
}

// SetTx inserts or replaces key → val. Returns 1 if the key is new.
func (ix *Index) SetTx(tx tm.Tx, h uint64, key, val []byte) uint64 {
	if len(key) > MaxKeyLen || len(val) > MaxValLen || len(key) == 0 {
		panic(ErrTooLarge)
	}
	slot := ix.bucketSlot(tx, h&(ix.buckets-1), true)
	prevLink, e := ix.find(tx, slot, h, key)
	if e != 0 {
		kl, vl := entryLens(tx.Load(e + fLens))
		if wordsFor(vl) == wordsFor(len(val)) {
			// Same value footprint: overwrite in place.
			tx.Store(e+fLens, uint64(kl)|uint64(len(val))<<16)
			storeBytes(tx, e+fKey+tm.Ptr(wordsFor(kl)), val)
			return 0
		}
		tx.Store(prevLink, tx.Load(e+fNext))
		tx.Free(e)
		ix.insert(tx, slot, h, key, val)
		return 0
	}
	ix.insert(tx, slot, h, key, val)
	tx.Store(tm.Root(rootCount), tx.Load(tm.Root(rootCount))+1)
	return 1
}

// insert links a fresh entry for key → val at the head of the bucket chain.
func (ix *Index) insert(tx tm.Tx, slot tm.Ptr, h uint64, key, val []byte) {
	kw, vw := wordsFor(len(key)), wordsFor(len(val))
	e := tx.Alloc(fKey + kw + vw)
	tx.Store(e+fNext, tx.Load(slot))
	tx.Store(e+fHash, h)
	tx.Store(e+fLens, uint64(len(key))|uint64(len(val))<<16)
	storeBytes(tx, e+fKey, key)
	storeBytes(tx, e+fKey+tm.Ptr(kw), val)
	tx.Store(slot, uint64(e))
}

// DelTx removes key. Returns 1 if it existed.
func (ix *Index) DelTx(tx tm.Tx, h uint64, key []byte) uint64 {
	slot := ix.bucketSlot(tx, h&(ix.buckets-1), false)
	prevLink, e := ix.find(tx, slot, h, key)
	if e == 0 {
		return 0
	}
	tx.Store(prevLink, tx.Load(e+fNext))
	tx.Free(e)
	tx.Store(tm.Root(rootCount), tx.Load(tm.Root(rootCount))-1)
	return 1
}

// IncrTx atomically adds delta to the decimal integer stored at key (an
// absent key counts as 0) and returns the new value. A non-integer value
// panics ErrNotInteger, which Backend.Async delivers as the future's
// error — the transaction leaves no trace.
func (ix *Index) IncrTx(tx tm.Tx, h uint64, key []byte, delta int64) uint64 {
	var cur int64
	if old, ok := ix.GetTx(tx, h, key); ok {
		v, err := strconv.ParseInt(string(old), 10, 64)
		if err != nil {
			panic(ErrNotInteger)
		}
		cur = v
	}
	cur += delta
	ix.SetTx(tx, h, key, strconv.AppendInt(nil, cur, 10))
	return uint64(cur)
}

// CountTx returns the number of live keys. Read-only.
func (ix *Index) CountTx(tx tm.Tx) uint64 { return tx.Load(tm.Root(rootCount)) }

// ScanTx walks bucket chains starting at bucket cursor, appending up to
// limit keys, and returns the bucket to resume from (0 = table exhausted).
// It inspects at most scanBucketBudget buckets per call so one step stays a
// short read transaction; a sparse table may therefore return zero keys
// with a non-zero cursor, exactly like Redis SCAN. Read-only. The key bytes
// are appended to *buf (see readBytes), and the key list is allocated once
// the walk is over, for the keys it found.
func (ix *Index) ScanTx(tx tm.Tx, buf *[]byte, cursor uint64, limit int) (keys [][]byte, next uint64) {
	if limit <= 0 {
		limit = 10
	}
	var onStack [scanKeysOnStack][]byte
	found := onStack[:0]
	var heads [warmBatch]tm.Ptr
	b := cursor
	for inspected := 0; b < ix.buckets && inspected < scanBucketBudget && len(found) < limit; {
		slot := ix.bucketSlot(tx, b, false)
		if slot == 0 {
			// Whole segment absent: skip to the next one.
			b = (b/bucketsPerSeg + 1) * bucketsPerSeg
			inspected++
			continue
		}
		// A run of buckets inside this segment: read their heads and touch
		// each chain's first entry before walking any (see warm), so the
		// chains' misses overlap.
		n := min(warmBatch, int(bucketsPerSeg-b%bucketsPerSeg), scanBucketBudget-inspected)
		for i := range heads[:n] {
			heads[i] = tm.Ptr(tx.Load(slot + tm.Ptr(i)))
		}
		for _, e := range heads[:n] {
			if e != 0 {
				tx.Load(e + fLens)
			}
		}
		for _, e := range heads[:n] {
			for ; e != 0; e = tm.Ptr(tx.Load(e + fNext)) {
				kl, _ := entryLens(tx.Load(e + fLens))
				found = append(found, readBytes(tx, buf, e+fKey, kl))
			}
			b++
			inspected++
			if len(found) >= limit {
				break
			}
		}
	}
	if b >= ix.buckets {
		b = 0
	}
	return slices.Clone(found), b
}

// op is one single-shard index operation of a pipeline drain (drain.go).
// The bodies that run it may execute more than once and, on a wait-free
// engine, on helper goroutines after the submitter has moved on, so an op
// and the bytes it points at are never written again once submitted.
type op struct {
	kind  opKind
	shard int32
	cmd   int32  // index of the command's reply record
	h     uint64 // key hash; opScan: bucket cursor
	n     int64  // opIncr: delta; opScan: key limit
	key   []byte
	val   []byte
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opIncr
	opScan
	opCount
)

// keyed reports whether the op looks one key up; write whether it stores
// (both read the order of the constants above); reads whether its result
// holds bytes read from the store.
func (k opKind) keyed() bool { return k <= opIncr }
func (k opKind) write() bool { return k >= opSet && k <= opIncr }
func (k opKind) reads() bool { return k == opGet || k == opScan }

// result is what one op produced in one execution of its body.
type result struct {
	n    uint64   // opSet/opDel: 1 if created/removed; opIncr: new value; opScan: next bucket; opCount: live keys
	ok   bool     // opGet: key present
	val  []byte   // opGet
	keys [][]byte // opScan
}

// warmBatch is how many lookups warm overlaps at a time: enough independent
// loads to fill the core's miss queue, few enough to stay in L1.
const warmBatch = 16

// warm walks the first two links of every keyed lookup in ops — bucket
// head, then the first entry's hash word — and discards what it reads. The
// links of one lookup depend on each other but those of different lookups do
// not, so issuing them side by side lets their cache and TLB misses overlap;
// the operations that follow find the lines present.
func (ix *Index) warm(tx tm.Tx, ops []op) {
	var heads [warmBatch]tm.Ptr
	for len(ops) > 0 {
		n := min(len(ops), warmBatch)
		for i := range ops[:n] {
			heads[i] = 0
			if !ops[i].kind.keyed() {
				continue
			}
			if slot := ix.bucketSlot(tx, ops[i].h&(ix.buckets-1), false); slot != 0 {
				heads[i] = tm.Ptr(tx.Load(slot))
			}
		}
		for _, e := range heads[:n] {
			if e != 0 {
				tx.Load(e + fHash)
			}
		}
		ops = ops[n:]
	}
}

// apply runs ops in order inside the enclosing transaction and returns a
// freshly allocated record of their results (one per execution: see op).
// The bytes the execution reads — GET values, SCAN keys — land in one
// buffer that it allocates too, and the record points into it.
func (ix *Index) apply(tx tm.Tx, ops []op) []result {
	ix.warm(tx, ops)
	res := make([]result, len(ops))
	var buf []byte
	if slices.ContainsFunc(ops, func(o op) bool { return o.kind.reads() }) {
		buf = make([]byte, 0, valueBufSize)
	}
	for i := range ops {
		o, r := &ops[i], &res[i]
		switch o.kind {
		case opGet:
			r.val, r.ok = ix.get(tx, &buf, o.h, o.key)
		case opSet:
			r.n = ix.SetTx(tx, o.h, o.key, o.val)
		case opDel:
			r.n = ix.DelTx(tx, o.h, o.key)
		case opIncr:
			r.n = ix.IncrTx(tx, o.h, o.key, o.n)
		case opScan:
			r.keys, r.n = ix.ScanTx(tx, &buf, o.h, int(o.n))
		case opCount:
			r.n = ix.CountTx(tx)
		}
	}
	return res
}
