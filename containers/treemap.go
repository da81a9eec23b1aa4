package containers

import (
	"math/bits"

	"onefile/internal/tm"
)

// TreeMap is an ordered uint64 → uint64 map — the paper's §VI "other
// containers can be implemented" made concrete — stored as a B+-tree of
// fixed tmNodeWords-word nodes, one allocator class. On a wait-free engine
// every method is wait-free; on a persistent engine the map is durable.
// Iteration in key order is a single consistent read-only transaction.
//
// A node is [word 0, tmCap keys, slots]. An inner node's word 0 is its
// count, its count keys are separators in order, and its count+1 slots are
// children: child i holds the keys in [key i−1, key i). A leaf's keys stay
// in the slot they were written to, each with its value in the slot of the
// same number, and its word 0 is count | order<<4: nibble j of the order is
// the slot that holds the leaf's j-th smallest key (after Chen & Jin's
// wB+-tree, VLDB 2015). All-zero order bits mean the slots are in order, as
// in a leaf of a bulk load or of a map written before the order word; with
// two or more keys a real order has a non-zero nibble, so the rule is
// unambiguous. A lookup binary searches one node per level, through the
// order at a leaf, and a range walks neighbouring leaves in order through
// the path its descent recorded (there are no sibling links to maintain).
// In a read-only transaction whose handle is a tm.RangeLoader, a node's
// count and keys are one LoadN, searched locally, and a range reads each
// leaf whole in one; elsewhere the same code loads word by word (tmView).
//
// A leaf insert writes the key and value into the lowest free slot and the
// new order into word 0; a leaf delete rewrites only word 0, and the key
// and value it dropped stay behind as garbage. (Dense unsorted leaves,
// where a delete fills the hole with the last key and a range sorts each
// leaf, wrote about as little but scanned slower: EXPERIMENTS.md, "A leaf
// insert writes one slot and one word".) A full leaf splits: its
// lower half stays where it is under a shorter order, and its upper half is
// written in order into a new leaf. An inner insert shifts, a full inner
// node splits in half, the split climbs the path, and a root split grows
// the tree. Deletes use free-at-empty (Johnson & Shasha, JCSS 1993): a leaf
// that empties is freed and removed from its parent, upward, and a root
// left with one child is replaced by it. Nothing merges or borrows, so a
// transaction stores O(height × tmNodeWords) words.
type TreeMap struct {
	e    Engine
	desc Ptr // [0]=root, [1]=size, [2]=height, [3]=layout tag
}

const (
	tmRoot   = 0
	tmSize   = 1
	tmHeight = 2
	tmLayout = 3

	// Layout tags. A map written before the B+-tree is a red-black tree of
	// RBTree's nodes: its descriptor was Alloc(3) — a four-word block —
	// holding [root, size, sentinel nil node] and a zero word 3. tmBTree
	// tagged a B+-tree whose leaves kept their keys in slot order with a
	// plain count in word 0; that is a valid tmPermLeaves image (all-zero
	// order bits), so NewTreeMap only re-tags it. A binary that knows only
	// tmBTree cannot open a tmPermLeaves map: it would take it for a
	// red-black tree and migrate it.
	tmBTree      = 1
	tmPermLeaves = 2

	// tmNodeWords is a node: a power of two, so one allocator class holds
	// it whole. Measured on txn-wf against 16 and 64 (EXPERIMENTS.md, "A
	// TreeMap range reads neighbouring words").
	tmNodeWords = 32
	tmCap       = (tmNodeWords - 2) / 2 // keys per node; an inner node has tmCap+1 children
	tmCount     = 0
	tmKeys      = 1               // key i at tmKeys+i
	tmSlots     = 1 + tmCap       // value or child i at tmSlots+i
	tmLeftHalf  = (tmCap + 1) / 2 // keys a split leaves in the left node
	// tmMaxHeight bounds a path. A node splits only when full, into halves,
	// so each split at one level takes at least 8 below it: a height of h
	// takes at least 8^(h−1) inserts, and 24 is more than 2^64.
	tmMaxHeight = 24

	// tmInOrder is the order of a leaf whose slots are in key order: nibble
	// j is j. It is what all-zero order bits stand for.
	tmInOrder = 0xEDCBA9876543210
)

// A node's words fill its block exactly: count, keys and tmCap+1 slots.
var _ [tmNodeWords - (tmSlots + tmCap + 1)]struct{}
var _ [(tmSlots + tmCap + 1) - tmNodeWords]struct{}

// A leaf's word 0 holds a 4-bit count and tmCap 4-bit slot numbers.
var _ [64 - 4*(1+tmCap)]struct{}

// leafWord decodes a leaf's word 0 into its count and its order, with the
// all-zero order expanded to tmInOrder.
func leafWord(w uint64) (cnt int, ord uint64) {
	if ord = w >> 4; ord == 0 {
		ord = tmInOrder
	}
	return int(w & 15), ord
}

// packLeaf is the word 0 of a leaf holding the first cnt slots of ord.
func packLeaf(cnt int, ord uint64) uint64 {
	return uint64(cnt) | (ord&(1<<(4*cnt)-1))<<4
}

// slotOf is the slot that holds the key of rank j in a leaf of order ord.
func slotOf(ord uint64, j int) Ptr { return Ptr(ord >> (4 * j) & 15) }

// withSlot is ord with slot s inserted at rank j: ranks j and up move one
// up.
func withSlot(ord uint64, j int, s Ptr) uint64 {
	low := uint64(1)<<(4*j) - 1
	return ord&low | uint64(s)<<(4*j) | (ord&^low)<<4
}

// withoutRank is ord with rank j removed: the ranks above it move one down.
func withoutRank(ord uint64, j int) uint64 {
	low := uint64(1)<<(4*j) - 1
	return ord&low | (ord>>4)&^low
}

// freeSlot is the lowest slot that none of the first cnt ranks of ord
// holds; there is one whenever cnt < tmCap.
func freeSlot(ord uint64, cnt int) Ptr {
	used := uint16(0)
	for j := 0; j < cnt; j++ {
		used |= 1 << slotOf(ord, j)
	}
	return Ptr(bits.TrailingZeros16(^used))
}

// tmHead is a node's count and keys: what a descent reads of an inner node,
// and of the leaf a lookup ends at.
const tmHead = tmSlots

// tmView reads a map's nodes inside one transaction: the first words of the
// node at hand in one LoadN when the handle is a tm.RangeLoader, every word
// through Load otherwise (update transactions, engines without LoadN). It
// holds one node at a time — the view LoadN returned, which the next LoadN
// overwrites — so a node is read whole once and then searched locally.
type tmView struct {
	tx Tx
	rl tm.RangeLoader // nil: word by word
	n  Ptr            // the node at hand
	w  []uint64       // its first len(w) words; nil without rl
}

// newView probes tx for LoadN, once per transaction.
func newView(tx Tx) tmView {
	rl, _ := tx.(tm.RangeLoader)
	return tmView{tx: tx, rl: rl}
}

// at makes n the node at hand and, when the handle can, reads its first
// words words in one LoadN.
func (v *tmView) at(n Ptr, words int) {
	v.n = n
	if v.rl != nil {
		v.w = v.rl.LoadN(n, words)
	}
}

// word returns word i of the node at hand.
func (v *tmView) word(i Ptr) uint64 {
	if i < Ptr(len(v.w)) {
		return v.w[i]
	}
	return v.tx.Load(v.n + i)
}

// tmPath is the descent to one leaf: the node at each level, from the root
// (level 0) to the leaf (level h−1), its count, at inner levels the child
// taken, and the leaf's order.
type tmPath struct {
	node [tmMaxHeight]Ptr
	cnt  [tmMaxHeight]int
	idx  [tmMaxHeight]int
	perm uint64
	h    int
}

// visit makes node n at level lvl of p the one at hand in v — its head, or
// its first leafWords words at the leaf — and records its count and, at the
// leaf, its order.
func (p *tmPath) visit(v *tmView, lvl int, n Ptr, leafWords int) {
	if lvl == p.h-1 {
		v.at(n, leafWords)
	} else {
		v.at(n, tmHead)
	}
	w := v.word(tmCount)
	p.node[lvl] = n
	if lvl == p.h-1 {
		p.cnt[lvl], p.perm = leafWord(w)
	} else {
		p.cnt[lvl] = int(w)
	}
}

// NewTreeMap attaches to (or creates in) root slot rootSlot of e. A map
// written before the order word (tag tmBTree) is re-tagged in a one-store
// transaction; its leaves are already valid. A map written as a red-black
// tree is migrated to the B+-tree first, in one transaction that stores
// about five words per entry; a map too large for that transaction's
// write-set panics with tm.ErrTooManyStores, as any oversize transaction
// does, and is left as it was.
func NewTreeMap(e Engine, rootSlot int) *TreeMap {
	m := &TreeMap{e: e, desc: initRoot(e, rootSlot, func(tx Tx) Ptr {
		d := tx.Alloc(4)
		tx.Store(d+tmRoot, uint64(tx.Alloc(tmNodeWords)))
		tx.Store(d+tmHeight, 1)
		tx.Store(d+tmLayout, tmPermLeaves)
		return d
	})}
	if e.Read(func(tx Tx) uint64 { return tx.Load(m.desc + tmLayout) }) != tmPermLeaves {
		e.Update(func(tx Tx) uint64 { m.migrateTx(tx); return 0 })
	}
	return m
}

// migrateTx brings an older map to tmPermLeaves. A tmBTree map only changes
// its tag. A red-black map is rebuilt: migrateTx walks the old tree in
// order, freeing each node, bulk-loads full leaves in slot order (all-zero
// order bits) and the inner levels above them, and rewrites the descriptor
// in place (word 2, the sentinel, becomes the height).
func (m *TreeMap) migrateTx(tx Tx) {
	switch tx.Load(m.desc + tmLayout) {
	case tmPermLeaves:
		return // another handle migrated it first
	case tmBTree:
		tx.Store(m.desc+tmLayout, tmPermLeaves)
		return
	}
	old := RBTree{desc: m.desc}
	nilN := old.nilNode(tx)
	var kv []uint64 // key, value, key, value, … ascending
	var stack []Ptr
	for n := old.root(tx); n != nilN || len(stack) > 0; {
		if n != nilN {
			stack = append(stack, n)
			n = left(tx, n)
			continue
		}
		n = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kv = append(kv, key(tx, n), tx.Load(n+tnVal))
		next := right(tx, n)
		tx.Free(n)
		n = next
	}
	tx.Free(nilN)

	// level holds the nodes of the level being built and the smallest key
	// under each, the separator its parent will need.
	var level, mins []uint64
	for _, g := range groups(len(kv)/2, tmCap) {
		n := tx.Alloc(tmNodeWords)
		for i := 0; i < g; i++ {
			tx.Store(n+tmKeys+Ptr(i), kv[2*i])
			tx.Store(n+tmSlots+Ptr(i), kv[2*i+1])
		}
		tx.Store(n+tmCount, uint64(g))
		level = append(level, uint64(n))
		if g > 0 {
			mins = append(mins, kv[0])
		}
		kv = kv[2*g:]
	}
	height := uint64(1)
	for ; len(level) > 1; height++ {
		var up, upMins []uint64
		for _, g := range groups(len(level), tmCap+1) {
			n := tx.Alloc(tmNodeWords)
			for i := 0; i < g; i++ {
				if i > 0 {
					tx.Store(n+tmKeys+Ptr(i-1), mins[i])
				}
				tx.Store(n+tmSlots+Ptr(i), level[i])
			}
			tx.Store(n+tmCount, uint64(g-1))
			up, upMins = append(up, uint64(n)), append(upMins, mins[0])
			level, mins = level[g:], mins[g:]
		}
		level, mins = up, upMins
	}
	tx.Store(m.desc+tmRoot, level[0])
	tx.Store(m.desc+tmHeight, height)
	tx.Store(m.desc+tmLayout, tmPermLeaves)
}

// groups splits n items into the fewest groups of at most per, as evenly as
// possible; zero items make one empty group (an empty root leaf).
func groups(n, per int) []int {
	g := max((n+per-1)/per, 1)
	out := make([]int, g)
	for i := range out {
		out[i] = n / g
		if i < n%g {
			out[i]++
		}
	}
	return out
}

// search returns how many of the cnt keys of the node at hand in v are
// below k — or, with upper, at most k: the child of an inner node that
// holds k. The key of rank j is in slot j of ord: tmInOrder in an inner
// node.
func search(v *tmView, cnt int, ord uint64, k uint64, upper bool) int {
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if km := v.word(tmKeys + slotOf(ord, mid)); km < k || upper && km == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find descends to the leaf that holds or would hold k, recording the path,
// and returns k's rank in the leaf and whether k is there. The leaf is left
// at hand in v, its first leafWords words read at once.
func (m *TreeMap) find(v *tmView, k uint64, p *tmPath, leafWords int) (i int, found bool) {
	n := Ptr(v.tx.Load(m.desc + tmRoot))
	p.h = int(v.tx.Load(m.desc + tmHeight))
	for lvl := 0; ; lvl++ {
		p.visit(v, lvl, n, leafWords)
		if lvl == p.h-1 {
			i = search(v, p.cnt[lvl], p.perm, k, false)
			return i, i < p.cnt[lvl] && v.word(tmKeys+slotOf(p.perm, i)) == k
		}
		i = search(v, p.cnt[lvl], tmInOrder, k, true)
		p.idx[lvl] = i
		n = Ptr(v.word(tmSlots + Ptr(i)))
	}
}

// Put sets k → v and returns the previous value, if any.
func (m *TreeMap) Put(k, v uint64) (prev uint64, existed bool) {
	return unpack(m.e.Update(func(tx Tx) uint64 {
		p, ok := m.PutTx(tx, k, v)
		return pack(p, ok)
	}))
}

// PutTx sets k → v inside the caller's transaction.
func (m *TreeMap) PutTx(tx Tx, k, v uint64) (prev uint64, existed bool) {
	var p tmPath
	view := newView(tx)
	i, found := m.find(&view, k, &p, tmHead)
	if found {
		at := p.node[p.h-1] + tmSlots + slotOf(p.perm, i)
		prev = tx.Load(at)
		tx.Store(at, v)
		return prev, true
	}
	m.insertLeaf(tx, &p, i, k, v)
	tx.Store(m.desc+tmSize, tx.Load(m.desc+tmSize)+1)
	return 0, false
}

// insertLeaf puts k → v at rank i of the leaf of path p. In a leaf with
// room that is three stores: the key and value into the lowest free slot and
// the new order. A full leaf splits: the tmLeftHalf lowest of its keys and k
// stay where they are under a shorter order (k in a free slot, if it is one
// of them), the rest are written in order into a new right leaf, and the
// right leaf's first key goes up as its separator.
func (m *TreeMap) insertLeaf(tx Tx, p *tmPath, i int, k, v uint64) {
	lvl := p.h - 1
	n, cnt, ord := p.node[lvl], p.cnt[lvl], p.perm
	if cnt < tmCap {
		s := freeSlot(ord, cnt)
		tx.Store(n+tmKeys+s, k)
		tx.Store(n+tmSlots+s, v)
		tx.Store(n+tmCount, packLeaf(cnt+1, withSlot(ord, i, s)))
		return
	}
	all := withSlot(ord, i, tmCap) // the cnt+1 ranks; "slot" tmCap is k
	right := tx.Alloc(tmNodeWords)
	for r := tmLeftHalf; r <= cnt; r++ {
		rk, rv := k, v
		if s := slotOf(all, r); s != tmCap {
			rk, rv = tx.Load(n+tmKeys+s), tx.Load(n+tmSlots+s)
		}
		tx.Store(right+tmKeys+Ptr(r-tmLeftHalf), rk)
		tx.Store(right+tmSlots+Ptr(r-tmLeftHalf), rv)
	}
	tx.Store(right+tmCount, uint64(cnt+1-tmLeftHalf))
	if i < tmLeftHalf {
		s := freeSlot(ord, tmLeftHalf-1)
		tx.Store(n+tmKeys+s, k)
		tx.Store(n+tmSlots+s, v)
		ord = withSlot(ord, i, s)
	}
	tx.Store(n+tmCount, packLeaf(tmLeftHalf, ord))
	m.insertInner(tx, p, lvl, tx.Load(right+tmKeys), right)
}

// insertInner puts separator k and the new node r that split off the node
// at level lvl of path p into that node's parent, just right of it. A full
// parent splits in half — its middle key moves up instead of being copied —
// and the split climbs the path; a root split grows the tree.
func (m *TreeMap) insertInner(tx Tx, p *tmPath, lvl int, k uint64, r Ptr) {
	for ; lvl > 0; lvl-- {
		n, cnt, i := p.node[lvl-1], p.cnt[lvl-1], p.idx[lvl-1]
		if cnt < tmCap {
			for j := cnt; j > i; j-- {
				tx.Store(n+tmKeys+Ptr(j), tx.Load(n+tmKeys+Ptr(j-1)))
				tx.Store(n+tmSlots+Ptr(j+1), tx.Load(n+tmSlots+Ptr(j)))
			}
			tx.Store(n+tmKeys+Ptr(i), k)
			tx.Store(n+tmSlots+Ptr(i+1), uint64(r))
			tx.Store(n+tmCount, uint64(cnt+1))
			return
		}
		// Split the node's tmCap+1 keys and tmCap+2 children: the left keeps
		// tmLeftHalf keys, key tmLeftHalf goes up, the right takes the rest.
		var keys [tmCap + 1]uint64
		var kids [tmCap + 2]uint64
		for j := 0; j < cnt; j++ {
			keys[j] = tx.Load(n + tmKeys + Ptr(j))
		}
		for j := 0; j <= cnt; j++ {
			kids[j] = tx.Load(n + tmSlots + Ptr(j))
		}
		copy(keys[i+1:], keys[i:cnt])
		keys[i] = k
		copy(kids[i+2:], kids[i+1:cnt+1])
		kids[i+1] = uint64(r)
		for j := i; j < tmLeftHalf; j++ {
			tx.Store(n+tmKeys+Ptr(j), keys[j])
		}
		for j := i + 1; j <= tmLeftHalf; j++ {
			tx.Store(n+tmSlots+Ptr(j), kids[j])
		}
		tx.Store(n+tmCount, tmLeftHalf)
		right := tx.Alloc(tmNodeWords)
		for j := tmLeftHalf + 1; j <= cnt; j++ {
			tx.Store(right+tmKeys+Ptr(j-tmLeftHalf-1), keys[j])
		}
		for j := tmLeftHalf + 1; j <= cnt+1; j++ {
			tx.Store(right+tmSlots+Ptr(j-tmLeftHalf-1), kids[j])
		}
		tx.Store(right+tmCount, uint64(cnt-tmLeftHalf))
		k, r = keys[tmLeftHalf], right
	}
	// A new root above the two halves.
	root := tx.Alloc(tmNodeWords)
	tx.Store(root+tmKeys, k)
	tx.Store(root+tmSlots, uint64(p.node[0]))
	tx.Store(root+tmSlots+1, uint64(r))
	tx.Store(root+tmCount, 1)
	tx.Store(m.desc+tmRoot, uint64(root))
	tx.Store(m.desc+tmHeight, uint64(p.h+1))
}

// Get returns the value mapped to k.
func (m *TreeMap) Get(k uint64) (v uint64, ok bool) {
	return unpack(m.e.Read(func(tx Tx) uint64 {
		v, ok := m.GetTx(tx, k)
		return pack(v, ok)
	}))
}

// GetTx reads k inside the caller's transaction.
func (m *TreeMap) GetTx(tx Tx, k uint64) (v uint64, ok bool) {
	var p tmPath
	view := newView(tx)
	i, found := m.find(&view, k, &p, tmHead)
	if !found {
		return 0, false
	}
	return view.word(tmSlots + slotOf(p.perm, i)), true
}

// Delete removes k and returns the value it mapped to, if any.
func (m *TreeMap) Delete(k uint64) (prev uint64, existed bool) {
	return unpack(m.e.Update(func(tx Tx) uint64 {
		p, ok := m.DeleteTx(tx, k)
		return pack(p, ok)
	}))
}

// DeleteTx removes k inside the caller's transaction.
func (m *TreeMap) DeleteTx(tx Tx, k uint64) (prev uint64, existed bool) {
	var p tmPath
	view := newView(tx)
	i, found := m.find(&view, k, &p, tmHead)
	if !found {
		return 0, false
	}
	prev = tx.Load(p.node[p.h-1] + tmSlots + slotOf(p.perm, i))
	m.removeAt(tx, &p, i)
	tx.Store(m.desc+tmSize, tx.Load(m.desc+tmSize)-1)
	return prev, true
}

// removeAt removes rank i from the leaf of path p by rewriting its order
// alone. A non-root leaf left with nothing is freed and removed from its
// parent instead — child c with key c−1, or key 0 when c is 0 — and so is
// an inner node that loses its only child, upward; a root inner node left
// with one child is replaced by it, down to a root with a key or a leaf.
func (m *TreeMap) removeAt(tx Tx, p *tmPath, i int) {
	lvl := p.h - 1
	if cnt := p.cnt[lvl]; cnt > 1 || lvl == 0 {
		tx.Store(p.node[lvl]+tmCount, packLeaf(cnt-1, withoutRank(p.perm, i)))
		return
	}
	tx.Free(p.node[lvl])
	for lvl--; lvl > 0 && p.cnt[lvl] == 0; lvl-- {
		tx.Free(p.node[lvl])
	}
	n, cnt, c := p.node[lvl], p.cnt[lvl], p.idx[lvl]
	for j := max(c-1, 0); j < cnt-1; j++ {
		tx.Store(n+tmKeys+Ptr(j), tx.Load(n+tmKeys+Ptr(j+1)))
	}
	for j := c; j < cnt; j++ {
		tx.Store(n+tmSlots+Ptr(j), tx.Load(n+tmSlots+Ptr(j+1)))
	}
	tx.Store(n+tmCount, uint64(cnt-1))
	if lvl > 0 || cnt > 1 {
		return
	}
	root, h := n, p.h
	for ; h > 1 && tx.Load(root+tmCount) == 0; h-- {
		child := Ptr(tx.Load(root + tmSlots))
		tx.Free(root)
		root = child
	}
	tx.Store(m.desc+tmRoot, uint64(root))
	tx.Store(m.desc+tmHeight, uint64(h))
}

// Len returns the number of entries.
func (m *TreeMap) Len() int {
	return int(m.e.Read(func(tx Tx) uint64 { return tx.Load(m.desc + tmSize) }))
}

// Height returns the number of levels, leaves included (introspection for
// tests).
func (m *TreeMap) Height() int {
	return int(m.e.Read(func(tx Tx) uint64 { return tx.Load(m.desc + tmHeight) }))
}

// Entry is one key/value pair of a range scan.
type Entry struct {
	Key, Val uint64
}

// Range returns up to max entries with Key in [lo, hi], ascending, from one
// consistent read-only transaction — a linearizable range query. It reads
// the leaves left to right, each in the order of its nibbles (nothing is
// sorted at read time): past a leaf's last key it climbs the path to the
// first level with a child further right, stopping there if that child's
// separator is above hi, and descends along leftmost children. With LoadN
// each leaf is one call, which also validates the slots outside [lo, hi].
func (m *TreeMap) Range(lo, hi uint64, max int) []Entry {
	if lo > hi || max <= 0 {
		return nil
	}
	return tm.Collect(m.e.Read, func(tx Tx) []Entry {
		out := make([]Entry, 0, min(max, 64))
		var p tmPath
		v := newView(tx)
		i, _ := m.find(&v, lo, &p, tmNodeWords)
		leaf := p.h - 1
		for {
			for ; i < p.cnt[leaf]; i++ {
				s := slotOf(p.perm, i)
				k := v.word(tmKeys + s)
				if k > hi {
					return out
				}
				out = append(out, Entry{Key: k, Val: v.word(tmSlots + s)})
				if len(out) == max {
					return out
				}
			}
			lvl := leaf - 1
			for lvl >= 0 && p.idx[lvl] == p.cnt[lvl] {
				lvl--
			}
			if lvl < 0 {
				return out
			}
			c := p.idx[lvl] + 1
			if tx.Load(p.node[lvl]+tmKeys+Ptr(c-1)) > hi {
				return out
			}
			p.idx[lvl] = c
			n := Ptr(tx.Load(p.node[lvl] + tmSlots + Ptr(c)))
			for lvl++; ; lvl++ {
				p.visit(&v, lvl, n, tmNodeWords)
				if lvl == leaf {
					break
				}
				p.idx[lvl] = 0
				n = Ptr(v.word(tmSlots))
			}
			i = 0
		}
	})
}

// CheckInvariants verifies, in one read-only transaction, the B+-tree's
// shape: the layout tag, every count within a node's bounds, every leaf's
// order naming distinct slots below tmCap, keys strictly ascending (in
// order-word order at a leaf) inside every separator interval, no empty
// leaf but the root, a root with a key whenever the height is above 1, and
// the stored size equal to the key count. Tests rely on it.
func (m *TreeMap) CheckInvariants() error {
	var err error
	m.e.Read(func(tx Tx) uint64 {
		err = m.checkTx(tx)
		return 0
	})
	return err
}

func (m *TreeMap) checkTx(tx Tx) error {
	if tx.Load(m.desc+tmLayout) != tmPermLeaves {
		return errLayout
	}
	h := int(tx.Load(m.desc + tmHeight))
	if h < 1 || h > tmMaxHeight {
		return errBadHeight
	}
	root := Ptr(tx.Load(m.desc + tmRoot))
	if h > 1 && tx.Load(root+tmCount) == 0 {
		return errRootOneChild
	}
	count := uint64(0)
	// walk checks the subtree at n, level lvl, whose keys must lie in
	// [lo, hi) — or [lo, ∞) when open.
	var walk func(n Ptr, lvl int, lo, hi uint64, open bool) error
	walk = func(n Ptr, lvl int, lo, hi uint64, open bool) error {
		w := tx.Load(n + tmCount)
		cnt, ord := int(w), uint64(tmInOrder)
		if lvl == h-1 {
			cnt, ord = leafWord(w)
			seen := uint16(0)
			for j := 0; j < cnt; j++ {
				s := slotOf(ord, j)
				if s >= tmCap || seen&(1<<s) != 0 {
					return errLeafOrder
				}
				seen |= 1 << s
			}
		}
		if cnt > tmCap {
			return errNodeCount
		}
		prev, first := lo, true
		for j := 0; j < cnt; j++ {
			k := tx.Load(n + tmKeys + slotOf(ord, j))
			if k < lo || !open && k >= hi || !first && k <= prev {
				return errKeyOrder
			}
			prev, first = k, false
		}
		if lvl == h-1 {
			if cnt == 0 && n != root {
				return errEmptyLeaf
			}
			count += uint64(cnt)
			return nil
		}
		for c := 0; c <= cnt; c++ {
			clo, chi, copen := lo, hi, open
			if c > 0 {
				clo = tx.Load(n + tmKeys + Ptr(c-1))
			}
			if c < cnt {
				chi, copen = tx.Load(n+tmKeys+Ptr(c)), false
			}
			if err := walk(Ptr(tx.Load(n+tmSlots+Ptr(c))), lvl+1, clo, chi, copen); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0, 0, 0, true); err != nil {
		return err
	}
	if count != tx.Load(m.desc+tmSize) {
		return errKeyCount
	}
	return nil
}

// B+-tree invariant violations reported by CheckInvariants.
var (
	errLayout       = errored("treemap: descriptor is not tagged as a B+-tree with ordered leaves")
	errBadHeight    = errored("treemap: height outside [1, 24]")
	errRootOneChild = errored("treemap: inner root with a single child")
	errNodeCount    = errored("treemap: node count above capacity")
	errLeafOrder    = errored("treemap: leaf order repeats a slot or names one past the last")
	errKeyOrder     = errored("treemap: key out of order or outside its separators")
	errEmptyLeaf    = errored("treemap: empty non-root leaf")
	errKeyCount     = errored("treemap: stored size does not match key count")
)
