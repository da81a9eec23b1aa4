package kvserver

// The connection loop. Its unit of work is the drain: every complete
// command the read buffer holds (server.go states the contract).

import (
	"math"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"onefile/internal/tm"
)

const (
	// drainCommands and drainBytes bound one drain: the first keeps a
	// transaction's work bounded (it is the engine's own batch bound),
	// the second keeps a drain of SETs inside the default write-set.
	drainCommands = 256
	drainBytes    = 64 << 10
)

// replyKind says how a command's reply is rendered from its ops' results.
type replyKind uint8

const (
	replySimple replyKind = iota // +msg
	replyError                   // -msg
	replyBulk                    // data
	replySum                     // sum of the ops' n (SET answers OK instead)
	replyGet                     // the op's value, or null
	replyMGet                    // array of the ops' values
	replyScan                    // cursor and page of the op
)

// reply is one command's in-order reply record. A command that needs the
// store owns ops[lo:lo+n] of the drain; err, set when a transaction failed
// with the command alone in it, replaces the rendered reply.
type reply struct {
	kind  replyKind
	class cmdClass
	lo, n int
	msg   string
	data  []byte
	err   error
}

// connState is one connection's command loop state.
type connState struct {
	s    *Server
	r    *respReader
	w    *respWriter
	slot int

	args    [][]byte // parse scratch: the slices are copied into ops
	ops     []op     // this drain's operations; allocated per drain (see op)
	res     []result // parallel to ops
	replies []reply
	quit    bool
}

func (s *Server) handle(nc net.Conn, slot int) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	c := &connState{s: s, r: newRespReader(nc), w: newRespWriter(nc), slot: slot}
	for !c.quit {
		if err := c.read(); err != nil {
			// EOF, deadline kick from Shutdown, or protocol violation.
			// Every command read before it has been answered and flushed.
			if err == errProtocol || err == errTooBig {
				c.w.Error(err.Error())
				c.w.Flush()
			}
			return
		}
		c.run()
		if c.w.Flush() != nil {
			return
		}
	}
}

// read parses the next drain into ops and replies: every complete command
// already buffered, up to the drain bounds, blocking only while there is
// none. The commands are parsed from a copy the drain owns, so the
// transaction bodies keep valid arguments when the read buffer moves on.
func (c *connState) read() error {
	// A fresh op list per drain (see op), sized by the last one.
	c.ops, c.replies = make([]op, 0, len(c.ops)), c.replies[:0]
	for need := 1; ; {
		if len(c.r.unread()) < need {
			if err := c.r.fill(need); err != nil {
				return err
			}
		}
		chunk := append([]byte(nil), c.r.unread()...)
		pos := 0
		for len(c.replies) < drainCommands && pos < drainBytes && !c.quit {
			args, n, more, err := parseCommand(chunk[pos:], c.args[:0])
			c.args = args
			if err != nil && len(c.replies) == 0 {
				return err
			}
			if n == 0 { // incomplete, or an error to report after this drain's replies
				need = more
				break
			}
			pos += n
			if len(args) > 0 {
				c.dispatch(args)
			}
		}
		c.r.consume(pos)
		if len(c.replies) > 0 {
			return nil
		}
		// Only blank lines or the front of a command so far.
	}
}

// run executes the drain — each maximal same-shard run of ops as one
// transaction, in order — and writes every reply.
func (c *connState) run() {
	m := &c.s.m
	var start time.Time
	if m.drains != nil {
		start = time.Now()
	}
	c.res = slices.Grow(c.res[:0], len(c.ops))[:len(c.ops)]
	clear(c.res)
	for lo := 0; lo < len(c.ops); {
		hi, cmds := lo+1, uint64(1)
		for ; hi < len(c.ops) && c.ops[hi].shard == c.ops[lo].shard; hi++ {
			if c.ops[hi].cmd != c.ops[hi-1].cmd {
				cmds++
			}
		}
		m.drains.Record(cmds)
		c.exec(c.ops[lo:hi], c.res[lo:hi])
		lo = hi
	}
	var took uint64
	if m.drains != nil {
		took = uint64(time.Since(start))
	}
	for i := range c.replies {
		r := &c.replies[i]
		m.ops[r.class].Inc(c.slot)
		if r.n > 0 {
			m.lat[r.class].Record(took)
		}
		c.write(r)
	}
}

// exec runs ops, all of one shard, as one transaction — an update through
// Backend.Async if any of them writes, a read-only transaction if none does
// — and stores their results in res. A transaction that fails (write-set
// or heap overflow, a body panic such as INCR of a non-integer or a load
// through a corrupt link) fails as a whole and commits nothing, so it is
// re-run as its two halves, split between commands, until the failing
// command stands alone and owns the error. A read reports its failure
// here, through tm.PanicError, as an update's future does.
func (c *connState) exec(ops []op, res []result) {
	be, ix, sh := c.s.be, c.s.ix, int(ops[0].shard)
	var err error
	run := func(fn func(tm.Tx) uint64) uint64 {
		defer func() {
			if r := recover(); r != nil {
				err = tm.PanicError(r)
			}
		}()
		return be.Read(sh, fn)
	}
	if slices.ContainsFunc(ops, func(o op) bool { return o.kind.write() }) {
		run = func(fn func(tm.Tx) uint64) (v uint64) {
			v, err = be.Async(sh, fn).Wait()
			return v
		}
	}
	// The body may run again, also after this call returns (see op): each
	// execution builds its own record and the committed one is selected.
	out := tm.Collect(run, func(tx tm.Tx) []result { return ix.apply(tx, ops) })
	first, last := ops[0].cmd, ops[len(ops)-1].cmd
	switch {
	case err == nil:
		copy(res, out)
	case first == last:
		c.replies[first].err = err
	default:
		c.s.m.splits.Inc(c.slot)
		mid := sort.Search(len(ops), func(i int) bool { return ops[i].cmd > first+(last-first)/2 })
		c.exec(ops[:mid], res[:mid])
		c.exec(ops[mid:], res[mid:])
	}
}

// write renders one reply.
func (c *connState) write(r *reply) {
	res := c.res[r.lo : r.lo+r.n]
	if r.err != nil {
		r.kind, r.msg = replyError, errReply(r.err)
	}
	switch r.kind {
	case replySimple:
		c.w.Simple(r.msg)
	case replyError:
		c.s.m.errs.Inc(c.slot)
		c.w.Error(r.msg)
	case replyBulk:
		c.w.Bulk(r.data)
	case replySum:
		if r.class == classSet {
			c.w.Simple("OK")
			return
		}
		var n uint64
		for i := range res {
			n += res[i].n
		}
		c.w.Int(int64(n))
	case replyMGet:
		c.w.Array(len(res))
		fallthrough
	case replyGet:
		for i := range res {
			if res[i].ok {
				c.w.Bulk(res[i].val)
			} else {
				c.w.Null()
			}
		}
	case replyScan:
		// A global cursor: the high 32 bits select the shard, the low 32
		// the bucket within it. 0 starts; 0 returned means exhausted.
		var next uint64
		var keys [][]byte
		if len(res) > 0 {
			sh := uint64(c.ops[r.lo].shard)
			keys, next = res[0].keys, res[0].n
			if next != 0 {
				next |= sh << 32
			} else if int(sh)+1 < c.s.be.Shards() {
				next = (sh + 1) << 32
			}
		}
		c.w.Array(2)
		c.w.Bulk(strconv.AppendUint(nil, next, 10))
		c.w.Array(len(keys))
		for _, k := range keys {
			c.w.Bulk(k)
		}
	}
}

// keyOp appends one keyed op of the command whose reply record is next.
func (c *connState) keyOp(kind opKind, key, val []byte, n int64) {
	h := HashKey(key)
	c.ops = append(c.ops, op{kind: kind, shard: int32(c.s.be.ShardFor(h)), cmd: int32(len(c.replies)), h: h, n: n, key: key, val: val})
}

// dispatch turns one command into its ops and its reply record.
func (c *connState) dispatch(args [][]byte) {
	// The command word is upper-cased where it lies: the chunk is this
	// drain's own and no body reads the word.
	name := args[0]
	for i, ch := range name {
		if 'a' <= ch && ch <= 'z' {
			name[i] = ch - 'a' + 'A'
		}
	}
	r := reply{class: classOther, lo: len(c.ops)}
	arity := func(ok bool) bool {
		if !ok {
			r.kind, r.msg = replyError, "ERR wrong number of arguments for '"+strings.ToLower(string(name))+"' command"
		}
		return ok
	}
	switch string(name) {
	case "SET":
		r.class, r.kind = classSet, replySum
		if arity(len(args) == 3) {
			c.keyOp(opSet, args[1], args[2], 0)
		}

	case "DEL":
		r.class, r.kind = classDel, replySum
		if arity(len(args) >= 2) {
			for _, key := range args[1:] {
				c.keyOp(opDel, key, nil, 0)
			}
		}

	case "INCR", "DECR", "INCRBY", "DECRBY":
		r.class, r.kind = classIncr, replySum
		delta, by := int64(1), len(name) == len("INCRBY")
		if !arity(len(args) == 2 && !by || len(args) == 3 && by) {
			break
		}
		if by {
			v, err := strconv.ParseInt(string(args[2]), 10, 64)
			if err != nil {
				r.kind, r.msg = replyError, ErrNotInteger.Error()
				break
			}
			delta = v
		}
		if name[0] == 'D' {
			delta = -delta
		}
		c.keyOp(opIncr, args[1], nil, delta)

	case "GET":
		r.class, r.kind = classGet, replyGet
		if arity(len(args) == 2) {
			c.keyOp(opGet, args[1], nil, 0)
		}

	case "MGET":
		r.class, r.kind = classMGet, replyMGet
		if arity(len(args) >= 2) {
			for _, key := range args[1:] {
				c.keyOp(opGet, key, nil, 0)
			}
		}

	case "SCAN":
		r.class, r.kind = classScan, replyScan
		count := 10
		if len(args) != 2 && !(len(args) == 4 && strings.EqualFold(string(args[2]), "COUNT")) {
			r.kind, r.msg = replyError, "ERR syntax error"
			break
		}
		cursor, err := strconv.ParseUint(string(args[1]), 10, 64)
		if err != nil {
			r.kind, r.msg = replyError, "ERR invalid cursor"
			break
		}
		if len(args) == 4 {
			// COUNT is any positive int64; on a 32-bit build one above the
			// largest int asks for every key, as the largest does.
			n, err := strconv.ParseInt(string(args[3]), 10, 64)
			if err != nil || n <= 0 {
				r.kind, r.msg = replyError, "ERR value is not an integer or out of range"
				break
			}
			count = int(min(n, math.MaxInt))
		}
		if sh := cursor >> 32; sh < uint64(c.s.be.Shards()) {
			c.ops = append(c.ops, op{kind: opScan, shard: int32(sh), cmd: int32(len(c.replies)), h: cursor & 0xFFFFFFFF, n: int64(count)})
		}

	case "DBSIZE":
		r.kind = replySum
		for sh := 0; sh < c.s.be.Shards(); sh++ {
			c.ops = append(c.ops, op{kind: opCount, shard: int32(sh), cmd: int32(len(c.replies))})
		}

	case "PING":
		r.kind, r.msg = replySimple, "PONG"
		if len(args) >= 2 {
			r.kind, r.data = replyBulk, args[1]
		}

	case "ECHO":
		r.kind = replyBulk
		if arity(len(args) == 2) {
			r.data = args[1]
		}

	case "COMMAND":
		// redis-cli sends this on connect; an empty array keeps it happy.
		r.kind = replyMGet

	case "QUIT":
		r.kind, r.msg = replySimple, "OK"
		c.quit = true

	default:
		r.kind, r.msg = replyError, "ERR unknown command '"+strings.ToLower(string(name))+"'"
	}
	r.n = len(c.ops) - r.lo
	c.replies = append(c.replies, r)
}
