package kvserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"onefile/internal/core"
	"onefile/internal/dcas"
	"onefile/internal/obs"
	"onefile/internal/tm"
)

// TestDrainResultOwnership: one window whose GET values outgrow the body's
// initial read buffer (valueBufSize), so the buffer grows mid-body, with
// SETs, a DEL and SCANs between the GETs. Every reply must equal the reply
// the same command gets alone, and the window must be one transaction.
func TestDrainResultOwnership(t *testing.T) {
	const bigKeys, bigLen, bigReads = 8, 700, 9 // the window reads 6,300 bytes of values
	big := func(i int) string { return strings.Repeat(string(rune('a'+i)), bigLen-3) + fmt.Sprintf("%03d", i) }
	var setup [][]string
	for i := 0; i < bigKeys; i++ {
		setup = append(setup, []string{"SET", fmt.Sprintf("big:%d", i), big(i)})
	}
	for i := 0; i < 20; i++ {
		setup = append(setup, []string{"SET", fmt.Sprintf("s:%d", i), strconv.Itoa(i)})
	}
	cmds := [][]string{
		{"GET", "big:0"}, {"GET", "big:1"}, {"SET", "s:1", "x"}, {"GET", "big:2"},
		{"SCAN", "0", "COUNT", "1000"}, {"GET", "big:3"}, {"DEL", "s:2"},
		{"MGET", "big:4", "big:5", "s:1", "s:2"}, {"SET", "big:6", "short"}, {"GET", "big:6"},
		{"SCAN", "0", "COUNT", "5"}, {"GET", "big:7"}, {"GET", "big:0"}, {"GET", "big:1"},
		{"SCAN", "0"}, {"DBSIZE"},
	}
	if bigReads*bigLen <= valueBufSize {
		t.Fatalf("the window reads %d value bytes: no more than the %d-byte buffer", bigReads*bigLen, valueBufSize)
	}
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			srv := NewServer(EngineBackend{E: newPTM(t, v.waitFree, testOpts()...)}, NewIndex(1<<10), obs.NewRegistry())
			dial, shutdown := serve(t, srv)
			defer shutdown()
			c := dial()
			defer c.Close()
			dial2, shutdown2 := startServer(t, EngineBackend{E: newPTM(t, v.waitFree, testOpts()...)}, 1<<10)
			defer shutdown2()
			c2 := dial2()
			defer c2.Close()
			for _, cmd := range setup {
				mustDo(t, c, cmd...)
				mustDo(t, c2, cmd...)
			}
			before := srv.m.drains.Snapshot()
			piped := pipeline(t, c, cmds...)
			for i, cmd := range cmds {
				if want := mustDo(t, c2, cmd...); !reflect.DeepEqual(piped[i], want) {
					t.Errorf("%v: pipelined reply %s, sequential reply %s", cmd, abbrev(piped[i]), abbrev(want))
				}
			}
			if h := srv.m.drains.Snapshot(); h.Count-before.Count != 1 || h.Sum-before.Sum != uint64(len(cmds)) {
				t.Errorf("kv_drain_commands: %d transactions holding %d commands, want 1 holding %d",
					h.Count-before.Count, h.Sum-before.Sum, len(cmds))
			}
		})
	}
}

// abbrev prints a reply, cut to a line.
func abbrev(v Value) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

// scanPerWord is the reference SCAN step for a table whose directory
// segments all exist: whole buckets from cursor on until limit keys are
// in, each key read one Load per word into a slice of its own.
func scanPerWord(tx tm.Tx, ix *Index, cursor uint64, limit int) (keys [][]byte, next uint64) {
	b := cursor
	for ; b < ix.buckets && len(keys) < limit; b++ {
		for e := tm.Ptr(tx.Load(ix.bucketSlot(tx, b, false))); e != 0; e = tm.Ptr(tx.Load(e + fNext)) {
			kl, _ := entryLens(tx.Load(e + fLens))
			var k []byte
			for i := 0; i < kl; i += 8 {
				k = binary.LittleEndian.AppendUint64(k, tx.Load(e+fKey+tm.Ptr(i/8)))
			}
			keys = append(keys, k[:kl])
		}
	}
	if b >= ix.buckets {
		return keys, 0
	}
	return keys, b
}

// scanStep is what one SCAN step produced through apply and through the
// reference, in the same transaction.
type scanStep struct {
	keys, want     [][]byte
	next, wantNext uint64
}

// TestScanMatchesPerWordWalk walks a full cursor over a table of 1,024
// buckets holding 8,192 keys of 1–40 bytes — eight-key chains, keys of up
// to five words — and holds every step, as apply runs it, to scanPerWord in
// the same transaction: in a read-only body, and in an update body that
// first SETs a new key into the step's first bucket and DELs another from
// it, which the step must then see (read-your-writes).
func TestScanMatchesPerWordWalk(t *testing.T) {
	const nKeys, buckets, limit = 8192, 1024, 37
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			e := newPTM(t, v.waitFree, tm.WithHeapWords(1<<19), tm.WithMaxThreads(8))
			ix := NewIndex(buckets)
			rng := rand.New(rand.NewSource(1))
			randKey := func() []byte {
				k := make([]byte, 1+rng.Intn(40))
				rng.Read(k)
				return k
			}
			inBucket := map[uint64][][]byte{}
			seen := map[string]bool{}
			var keys [][]byte
			for len(keys) < nKeys {
				if k := randKey(); !seen[string(k)] {
					seen[string(k)] = true
					keys = append(keys, k)
				}
			}
			e.Update(func(tx tm.Tx) uint64 { ix.InitTx(tx); return 0 })
			for lo := 0; lo < nKeys; lo += 512 {
				batch := keys[lo : lo+512]
				e.Update(func(tx tm.Tx) uint64 {
					for _, k := range batch {
						ix.SetTx(tx, HashKey(k), k, []byte("v"))
					}
					return 0
				})
			}
			for _, k := range keys {
				b := HashKey(k) & (buckets - 1)
				inBucket[b] = append(inBucket[b], k)
			}

			for _, update := range []bool{false, true} {
				steps, total := 0, 0
				for cursor := uint64(0); ; steps++ {
					var ops []op
					var added, gone []byte
					if update {
						for added = randKey(); HashKey(added)&(buckets-1) != cursor || seen[string(added)]; added = randKey() {
						}
						seen[string(added)] = true
						ops = append(ops, op{kind: opSet, h: HashKey(added), key: added, val: []byte("new")})
						if ks := inBucket[cursor]; len(ks) > 0 {
							gone = ks[rng.Intn(len(ks))]
							ops = append(ops, op{kind: opDel, h: HashKey(gone), key: gone})
						}
					}
					ops = append(ops, op{kind: opScan, h: cursor, n: limit})
					body := func(tx tm.Tx) (r scanStep) {
						res := ix.apply(tx, ops)
						r.keys, r.next = res[len(res)-1].keys, res[len(res)-1].n
						r.want, r.wantNext = scanPerWord(tx, ix, cursor, limit)
						return r
					}
					run := e.Read
					if update {
						run = e.Update
					}
					got := tm.Collect(run, body)
					if !reflect.DeepEqual(got.keys, got.want) || got.next != got.wantNext {
						t.Fatalf("update=%v step %d from bucket %d: apply gave %d keys, next %d; the per-word walk %d keys, next %d",
							update, steps, cursor, len(got.keys), got.next, len(got.want), got.wantNext)
					}
					for _, k := range got.keys {
						if cap(k) != len(k) {
							t.Fatalf("step %d: key %q has capacity %d beyond its length", steps, k, cap(k))
						}
					}
					if update {
						is := func(k []byte) func([]byte) bool { return func(x []byte) bool { return bytes.Equal(x, k) } }
						sawAdded, sawGone := slices.ContainsFunc(got.keys, is(added)), gone != nil && slices.ContainsFunc(got.keys, is(gone))
						if !sawAdded || sawGone {
							t.Fatalf("step %d from bucket %d: the body's own SET seen %v, its DEL seen %v", steps, cursor, sawAdded, sawGone)
						}
						if gone != nil {
							inBucket[cursor] = slices.DeleteFunc(inBucket[cursor], is(gone))
						}
						inBucket[cursor] = append(inBucket[cursor], added)
					}
					total += len(got.keys)
					if cursor = got.next; cursor == 0 {
						break
					}
				}
				if want := int(e.Read(func(tx tm.Tx) uint64 { return ix.CountTx(tx) })); total != want {
					t.Fatalf("update=%v: the walk found %d keys in %d steps, the table holds %d", update, total, steps, want)
				}
			}
		})
	}
}

// indexFixture is a table shaped like the benchmark's KV workloads: 2¹⁶
// keys of 8 bytes with 64-byte values, in as many buckets.
type indexFixture struct {
	e    *core.Engine
	ix   *Index
	keys [][]byte
	val  []byte
}

var sharedIndexFixture = sync.OnceValue(func() *indexFixture {
	const nKeys = 1 << 16
	f := &indexFixture{e: core.NewLF(tm.WithHeapWords(1<<21), tm.WithMaxThreads(8)), ix: NewIndex(nKeys), val: bytes.Repeat([]byte{'v'}, 64)}
	for i := 0; i < nKeys; i++ {
		f.keys = append(f.keys, binary.LittleEndian.AppendUint64(nil, uint64(i)*0x9E3779B97F4A7C15))
	}
	f.e.Update(func(tx tm.Tx) uint64 { f.ix.InitTx(tx); return 0 })
	for lo := 0; lo < nKeys; lo += 1024 {
		f.e.Update(func(tx tm.Tx) uint64 {
			for _, k := range f.keys[lo : lo+1024] {
				f.ix.SetTx(tx, HashKey(k), k, f.val)
			}
			return 0
		})
	}
	return f
})

func (f *indexFixture) op(kind opKind, i int) op {
	k := f.keys[i%len(f.keys)]
	o := op{kind: kind, h: HashKey(k), key: k}
	if kind == opSet {
		o.val = f.val
	}
	return o
}

// scanOp is a SCAN of limit keys from a bucket chosen by i.
func (f *indexFixture) scanOp(i, limit int) op {
	return op{kind: opScan, h: uint64(i*7919) & (f.ix.buckets - 1), n: int64(limit)}
}

// window is a drain body of n commands in kv-readscan's mix: 90 % GET,
// 5 % SET, 5 % SCAN COUNT 50.
func (f *indexFixture) window(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch p := rng.Intn(100); {
		case p < 5:
			ops[i] = f.op(opSet, rng.Intn(len(f.keys)))
		case p < 10:
			ops[i] = f.scanOp(rng.Intn(1<<30), 50)
		default:
			ops[i] = f.op(opGet, rng.Intn(len(f.keys)))
		}
	}
	return ops
}

// applyAllocs is the allocations of one read-only execution of apply(ops).
func applyAllocs(f *indexFixture, ops []op) float64 {
	body := func(tx tm.Tx) uint64 { return uint64(len(f.ix.apply(tx, ops))) }
	f.e.Read(body) // warm the slot
	return testing.AllocsPerRun(50, func() { f.e.Read(body) })
}

// TestApplyAllocs holds a body execution's allocations to its result
// record and its one read buffer, however many values it reads, plus one
// key list per SCAN; and a SCAN whose COUNT is the largest int allocates
// for the keys it finds, not for the COUNT.
func TestApplyAllocs(t *testing.T) {
	if !dcas.Native {
		t.Skip("allocation counts are measured on the native TM word")
	}
	f := sharedIndexFixture()
	one := applyAllocs(f, []op{f.op(opGet, 1)})
	var gets []op
	for i := 0; i < 32; i++ {
		gets = append(gets, f.op(opGet, i*31))
	}
	if many := applyAllocs(f, gets); many != one {
		t.Errorf("32 GETs allocate %v times, 1 GET %v times: want the same", many, one)
	}
	scan := []op{f.scanOp(12345, 50)}
	if got := f.e.Read(func(tx tm.Tx) uint64 { return uint64(len(f.ix.apply(tx, scan)[0].keys)) }); got < 50 {
		t.Fatalf("the SCAN found %d keys, want ≥ 50", got)
	}
	if n := applyAllocs(f, scan); n > 3 {
		t.Errorf("a 50-key SCAN allocates %v times, want ≤ 3", n)
	}

	// COUNT at the largest int over a small table: every key, one step.
	e := newPTM(t, false, testOpts()...)
	ix := NewIndex(1 << 10)
	e.Update(func(tx tm.Tx) uint64 {
		ix.InitTx(tx)
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("k%d", i))
			ix.SetTx(tx, HashKey(k), k, []byte("v"))
		}
		return 0
	})
	huge := []op{{kind: opScan, n: math.MaxInt64}}
	var found int
	var next uint64
	body := func(tx tm.Tx) uint64 {
		r := ix.apply(tx, huge)[0]
		found, next = len(r.keys), r.n
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Read(body)
	runtime.ReadMemStats(&after)
	if found != 100 || next != 0 {
		t.Fatalf("SCAN 0 COUNT MaxInt64 found %d keys, next %d: want 100, 0", found, next)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 32<<10 {
		t.Errorf("SCAN 0 COUNT MaxInt64 over 100 keys allocated %d bytes", b)
	}
}

// TestServerScanHugeCount: SCAN with COUNT at the largest int answers as
// any other SCAN does.
func TestServerScanHugeCount(t *testing.T) {
	dial, shutdown := startServer(t, EngineBackend{E: newPTM(t, false, testOpts()...)}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()
	for i := 0; i < 30; i++ {
		mustDo(t, c, "SET", fmt.Sprintf("k%d", i), "v")
	}
	v := mustDo(t, c, "SCAN", "0", "COUNT", strconv.FormatInt(math.MaxInt64, 10))
	if len(v.Arr) != 2 || string(v.Arr[0].Str) != "0" || len(v.Arr[1].Arr) != 30 {
		t.Fatalf("SCAN 0 COUNT MaxInt64 = %+v, want cursor 0 and 30 keys", v)
	}
}

// BenchmarkIndexScan is one read-only body holding one 50-key SCAN at 2¹⁶
// keys: the walk, the key bytes and the key list.
func BenchmarkIndexScan(b *testing.B) {
	f := sharedIndexFixture()
	ops := make([][]op, 64)
	for i := range ops {
		ops[i] = []op{f.scanOp(i*977, 50)}
	}
	var i int
	body := func(tx tm.Tx) uint64 { return uint64(len(f.ix.apply(tx, ops[i%len(ops)])[0].keys)) }
	b.ReportAllocs()
	b.ResetTimer()
	for i = 0; i < b.N; i++ {
		f.e.Read(body)
	}
}

// BenchmarkDrainApply is one update body holding a 32-command window of
// kv-readscan's mix (see window) at 2¹⁶ keys, committed on OF-LF.
func BenchmarkDrainApply(b *testing.B) {
	f := sharedIndexFixture()
	rng := rand.New(rand.NewSource(1))
	windows := make([][]op, 64)
	for i := range windows {
		windows[i] = f.window(rng, 32)
	}
	var i int
	body := func(tx tm.Tx) uint64 { return uint64(len(f.ix.apply(tx, windows[i%len(windows)]))) }
	b.ReportAllocs()
	b.ResetTimer()
	for i = 0; i < b.N; i++ {
		f.e.Update(body)
	}
}
