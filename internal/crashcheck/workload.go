package crashcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"onefile/containers"
	"onefile/internal/tm"
)

// Root slots used by the canonical workload.
const (
	slotQueue = 0 // containers.Queue
	slotSet   = 1 // containers.HashSet
	slotMap   = 2 // containers.TreeMap
	slotGen   = 3 // bare root word: generation counter
)

// keyUniverse bounds the keys the workload touches, so the verifier can
// read back set membership exhaustively.
const keyUniverse = 48

// mapFill is the keys the first mixed transaction puts into the tree map:
// one more than a leaf holds, so it splits the root leaf, and every later
// map operation descends through an inner node.
const mapFill = 16

// Workload op kinds.
const (
	opEnqueue = iota
	opDequeue
	opSetAdd
	opSetRemove
	opMapPut
	opMapDelete
)

// txnOp is one container operation inside a workload transaction.
type txnOp struct {
	kind int
	key  uint64
	val  uint64
}

// txn is one engine transaction of the canonical workload. The first three
// transactions create the containers (setup 1..3); every later transaction
// stamps the generation root and applies ops atomically.
type txn struct {
	setup int // 0 = none, 1 = queue, 2 = hashset, 3 = treemap
	gen   uint64
	ops   []txnOp
}

// Program is the deterministic transaction list of a canonical workload,
// plus the oracle model snapshots after each prefix of it.
type Program struct {
	Seed   int64
	txns   []txn
	states []string // states[k] = digest of the model after k transactions
}

// NewProgram generates the canonical workload: 3 container-creation
// transactions, one that fills the tree map with mapFill keys, and txns
// mixed-operation transactions, all derived from seed. The same (seed, txns)
// pair always yields the same program, the same persistence-event trace, and
// the same oracle states.
func NewProgram(seed int64, txns int) *Program { return newProgram(seed, txns, mapFill) }

// newProgram is NewProgram with fill keys put into the map first; with no
// fill keys there is no fill transaction.
func newProgram(seed int64, txns, fill int) *Program {
	rng := rand.New(rand.NewSource(seed))
	p := &Program{Seed: seed}
	p.txns = append(p.txns, txn{setup: 1}, txn{setup: 2}, txn{setup: 3})
	gen := uint64(0)
	if fill > 0 {
		gen++
		t := txn{gen: gen}
		keys := rng.Perm(keyUniverse)[:fill]
		sort.Ints(keys) // ascending: each put appends to its leaf, none shifts
		for _, k := range keys {
			t.ops = append(t.ops, txnOp{kind: opMapPut, key: uint64(k), val: rng.Uint64() >> 1})
		}
		p.txns = append(p.txns, t)
	}
	for range txns {
		gen++
		tx := txn{gen: gen}
		nops := rng.Intn(4) + 2
		for i := 0; i < nops; i++ {
			op := txnOp{key: uint64(rng.Intn(keyUniverse)), val: rng.Uint64() >> 1}
			switch rng.Intn(6) {
			case 0:
				op.kind = opEnqueue
			case 1:
				op.kind = opDequeue
			case 2:
				op.kind = opSetAdd
			case 3:
				op.kind = opSetRemove
			case 4:
				op.kind = opMapPut
			case 5:
				op.kind = opMapDelete
			}
			tx.ops = append(tx.ops, op)
		}
		p.txns = append(p.txns, tx)
	}

	m := newModel()
	p.states = append(p.states, m.digest())
	for _, tx := range p.txns {
		m.apply(tx)
		p.states = append(p.states, m.digest())
	}
	return p
}

// Len returns the number of transactions in the program.
func (p *Program) Len() int { return len(p.txns) }

// StateAfter returns the oracle digest after the first k transactions.
func (p *Program) StateAfter(k int) string { return p.states[k] }

// --- sequential oracle model ---

// model is the executable sequential specification of the workload: plain
// Go containers mutated by the same deterministic transaction list.
type model struct {
	created [3]bool
	gen     uint64
	queue   []uint64
	set     map[uint64]bool
	kv      map[uint64]uint64
}

func newModel() *model {
	return &model{set: map[uint64]bool{}, kv: map[uint64]uint64{}}
}

func (m *model) apply(t txn) {
	if t.setup > 0 {
		m.created[t.setup-1] = true
		return
	}
	m.gen = t.gen
	for _, op := range t.ops {
		switch op.kind {
		case opEnqueue:
			m.queue = append(m.queue, op.val)
		case opDequeue:
			if len(m.queue) > 0 {
				m.queue = m.queue[1:]
			}
		case opSetAdd:
			m.set[op.key] = true
		case opSetRemove:
			delete(m.set, op.key)
		case opMapPut:
			m.kv[op.key] = op.val
		case opMapDelete:
			delete(m.kv, op.key)
		}
	}
}

// digest renders the model canonically, so two states compare by string
// equality and failures print readably.
func (m *model) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "created=%v%v%v gen=%d\n", m.created[0], m.created[1], m.created[2], m.gen)
	fmt.Fprintf(&b, "queue=%v\n", m.queue)
	keys := make([]uint64, 0, len(m.set))
	for k := range m.set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintf(&b, "set=%v\n", keys)
	keys = keys[:0]
	for k := range m.kv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b.WriteString("map=[")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, m.kv[k])
	}
	b.WriteString("]")
	return b.String()
}

// --- engine-side execution and read-back ---

// applyOps applies one workload transaction's container operations inside
// tx.
func (p *Program) applyOps(tx tm.Tx, t txn, q *containers.Queue, hs *containers.HashSet, tmp *containers.TreeMap) {
	for _, op := range t.ops {
		switch op.kind {
		case opEnqueue:
			q.EnqueueTx(tx, op.val)
		case opDequeue:
			q.DequeueTx(tx)
		case opSetAdd:
			hs.AddTx(tx, op.key)
		case opSetRemove:
			hs.RemoveTx(tx, op.key)
		case opMapPut:
			tmp.PutTx(tx, op.key, op.val)
		case opMapDelete:
			tmp.DeleteTx(tx, op.key)
		}
	}
}

// run executes the whole program on e and calls ack(n) as each submission
// of n workload transactions returns. The container-creation transactions
// run first, one engine transaction each: the handles must exist before any
// body uses them. With batch > 1 the rest are submitted in chunks of batch
// through tm.Batch, else as one Update each.
func (p *Program) run(e tm.Engine, batch int, ack func(n int)) error {
	var q *containers.Queue
	var hs *containers.HashSet
	var tmp *containers.TreeMap
	rest := p.txns
	for ; len(rest) > 0 && rest[0].setup > 0; rest = rest[1:] {
		switch rest[0].setup {
		case 1:
			q = containers.NewQueue(e, slotQueue)
		case 2:
			hs = containers.NewHashSet(e, slotSet)
		case 3:
			tmp = containers.NewTreeMap(e, slotMap)
		}
		ack(1)
	}
	body := func(t txn) func(tm.Tx) uint64 {
		return func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(slotGen), t.gen)
			p.applyOps(tx, t, q, hs, tmp)
			return 0
		}
	}
	if batch <= 1 {
		for _, t := range rest {
			e.Update(body(t))
			ack(1)
		}
		return nil
	}
	for start := 0; start < len(rest); start += batch {
		chunk := rest[start:min(start+batch, len(rest))]
		fns := make([]func(tm.Tx) uint64, len(chunk))
		for i, t := range chunk {
			fns[i] = body(t)
		}
		for i, r := range tm.Batch(e, fns) {
			if r.Err != nil {
				return fmt.Errorf("batched txn %d: %w", start+i, r.Err)
			}
		}
		ack(len(chunk))
	}
	return nil
}

// readState reads the recovered engine's logical state back into a model
// digest. It mutates nothing: container constructors on a non-empty root
// slot only load the existing descriptor.
func readState(e tm.Engine) string {
	m := newModel()
	var roots [4]uint64
	e.Read(func(tx tm.Tx) uint64 {
		for i := range roots {
			roots[i] = tx.Load(tm.Root(i))
		}
		return 0
	})
	m.created = [3]bool{roots[slotQueue] != 0, roots[slotSet] != 0, roots[slotMap] != 0}
	m.gen = roots[slotGen]
	if m.created[0] {
		q := containers.NewQueue(e, slotQueue)
		m.queue = q.Snapshot(1 << 20)
	}
	if m.created[1] {
		hs := containers.NewHashSet(e, slotSet)
		for k := uint64(0); k < keyUniverse; k++ {
			if hs.Contains(k) {
				m.set[k] = true
			}
		}
	}
	if m.created[2] {
		tmp := containers.NewTreeMap(e, slotMap)
		for _, ent := range tmp.Range(0, containers.MaxValue, 1<<20) {
			m.kv[ent.Key] = ent.Val
		}
	}
	return m.digest()
}
