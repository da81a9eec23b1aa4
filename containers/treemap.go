package containers

import "onefile/internal/tm"

// TreeMap is an ordered uint64 → uint64 map — the paper's §VI "other
// containers can be implemented" made concrete — stored as a B+-tree of
// fixed tmNodeWords-word nodes, one allocator class. On a wait-free engine
// every method is wait-free; on a persistent engine the map is durable.
// Iteration in key order is a single consistent read-only transaction.
//
// A node is [count, tmCap keys, slots]. A leaf's slots are the values of its
// keys. An inner node's count keys are separators and its count+1 slots are
// children: child i holds the keys in [key i−1, key i). A lookup binary
// searches one node per level, so the keys it reads sit side by side, and a
// range walks neighbouring leaves through the path its descent recorded
// (there are no sibling links to maintain).
//
// An insert shifts within its leaf. A full node splits in half and the
// split climbs the path; a root split grows the tree. A delete shifts, and
// uses free-at-empty (Johnson & Shasha, JCSS 1993): a leaf that empties is
// freed and removed from its parent, upward, and a root left with one child
// is replaced by it. Nothing merges or borrows, so a transaction stores
// O(height × tmNodeWords) words.
type TreeMap struct {
	e    Engine
	desc Ptr // [0]=root, [1]=size, [2]=height, [3]=layout tag
}

const (
	tmRoot   = 0
	tmSize   = 1
	tmHeight = 2
	tmLayout = 3

	// tmBTree tags the B+-tree layout. A map written before it is a
	// red-black tree of RBTree's nodes: its descriptor was Alloc(3) — a
	// four-word block — holding [root, size, sentinel nil node] and a zero
	// word 3. NewTreeMap migrates it.
	tmBTree = 1

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
)

// A node's words fill its block exactly: count, keys and tmCap+1 slots.
var _ [tmNodeWords - (tmSlots + tmCap + 1)]struct{}
var _ [(tmSlots + tmCap + 1) - tmNodeWords]struct{}

// tmPath is the descent to one leaf: the node at each level, from the root
// (level 0) to the leaf (level h−1), its count, and at inner levels the
// child taken.
type tmPath struct {
	node [tmMaxHeight]Ptr
	cnt  [tmMaxHeight]int
	idx  [tmMaxHeight]int
	h    int
}

// NewTreeMap attaches to (or creates in) root slot rootSlot of e. A map
// written as a red-black tree is migrated to the B+-tree first, in one
// transaction that stores about five words per entry; a map too large for
// that transaction's write-set panics with tm.ErrTooManyStores, as any
// oversize transaction does, and is left as it was.
func NewTreeMap(e Engine, rootSlot int) *TreeMap {
	m := &TreeMap{e: e, desc: initRoot(e, rootSlot, func(tx Tx) Ptr {
		d := tx.Alloc(4)
		tx.Store(d+tmRoot, uint64(tx.Alloc(tmNodeWords)))
		tx.Store(d+tmHeight, 1)
		tx.Store(d+tmLayout, tmBTree)
		return d
	})}
	if e.Read(func(tx Tx) uint64 { return tx.Load(m.desc + tmLayout) }) != tmBTree {
		e.Update(func(tx Tx) uint64 { m.migrateTx(tx); return 0 })
	}
	return m
}

// migrateTx rebuilds a red-black map as a B+-tree: it walks the old tree
// in order, freeing each node, bulk-loads full leaves and the inner levels
// above them, and rewrites the descriptor in place (word 2, the sentinel,
// becomes the height).
func (m *TreeMap) migrateTx(tx Tx) {
	if tx.Load(m.desc+tmLayout) == tmBTree {
		return // another handle migrated it first
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
	tx.Store(m.desc+tmLayout, tmBTree)
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

// search returns how many of node n's cnt keys are below k — or, with
// upper, at most k: the child of an inner node that holds k.
func search(tx Tx, n Ptr, cnt int, k uint64, upper bool) int {
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if km := tx.Load(n + tmKeys + Ptr(mid)); km < k || upper && km == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find descends to the leaf that holds or would hold k, recording the path,
// and returns the leaf's position for k and whether k is there.
func (m *TreeMap) find(tx Tx, k uint64, p *tmPath) (i int, found bool) {
	n := Ptr(tx.Load(m.desc + tmRoot))
	p.h = int(tx.Load(m.desc + tmHeight))
	for lvl := 0; ; lvl++ {
		cnt := int(tx.Load(n + tmCount))
		p.node[lvl], p.cnt[lvl] = n, cnt
		if lvl == p.h-1 {
			i = search(tx, n, cnt, k, false)
			return i, i < cnt && tx.Load(n+tmKeys+Ptr(i)) == k
		}
		i = search(tx, n, cnt, k, true)
		p.idx[lvl] = i
		n = Ptr(tx.Load(n + tmSlots + Ptr(i)))
	}
}

// inner is the number of slots an inner node has beyond its keys: 1 above
// the leaf level of path p, 0 at it.
func (p *tmPath) inner(lvl int) int {
	if lvl < p.h-1 {
		return 1
	}
	return 0
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
	i, found := m.find(tx, k, &p)
	if found {
		at := p.node[p.h-1] + tmSlots + Ptr(i)
		prev = tx.Load(at)
		tx.Store(at, v)
		return prev, true
	}
	m.insertAt(tx, &p, p.h-1, i, k, v)
	tx.Store(m.desc+tmSize, tx.Load(m.desc+tmSize)+1)
	return 0, false
}

// insertAt puts key k at position i of the node at level lvl of path p,
// with slot word s: in a leaf, k's value at slot i; in an inner node, the
// new right sibling of child i, at slot i+1. A full node splits, and the
// first key of the right half goes up as its separator (an inner node's
// middle key moves up instead of being copied).
func (m *TreeMap) insertAt(tx Tx, p *tmPath, lvl, i int, k, s uint64) {
	for {
		n, cnt, in := p.node[lvl], p.cnt[lvl], p.inner(lvl)
		si := i + in // s's slot
		if cnt < tmCap {
			for j := cnt; j > i; j-- {
				tx.Store(n+tmKeys+Ptr(j), tx.Load(n+tmKeys+Ptr(j-1)))
			}
			for j := cnt + in; j > si; j-- {
				tx.Store(n+tmSlots+Ptr(j), tx.Load(n+tmSlots+Ptr(j-1)))
			}
			tx.Store(n+tmKeys+Ptr(i), k)
			tx.Store(n+tmSlots+Ptr(si), s)
			tx.Store(n+tmCount, uint64(cnt+1))
			return
		}
		// Split the node's tmCap+1 keys: the left keeps tmLeftHalf, and the
		// right takes the ones from r (past the separator of an inner node).
		var keys [tmCap + 1]uint64
		var slots [tmCap + 2]uint64
		for j := 0; j < cnt; j++ {
			keys[j] = tx.Load(n + tmKeys + Ptr(j))
		}
		for j := 0; j < cnt+in; j++ {
			slots[j] = tx.Load(n + tmSlots + Ptr(j))
		}
		copy(keys[i+1:], keys[i:cnt])
		keys[i] = k
		copy(slots[si+1:], slots[si:cnt+in])
		slots[si] = s
		for j := i; j < tmLeftHalf; j++ {
			tx.Store(n+tmKeys+Ptr(j), keys[j])
		}
		for j := si; j < tmLeftHalf+in; j++ {
			tx.Store(n+tmSlots+Ptr(j), slots[j])
		}
		tx.Store(n+tmCount, tmLeftHalf)
		r := tmLeftHalf + in
		right := tx.Alloc(tmNodeWords)
		for j := r; j <= cnt; j++ {
			tx.Store(right+tmKeys+Ptr(j-r), keys[j])
		}
		for j := r; j <= cnt+in; j++ {
			tx.Store(right+tmSlots+Ptr(j-r), slots[j])
		}
		tx.Store(right+tmCount, uint64(cnt+1-r))
		k, s = keys[tmLeftHalf], uint64(right)
		if lvl == 0 { // a new root above the two halves
			root := tx.Alloc(tmNodeWords)
			tx.Store(root+tmKeys, k)
			tx.Store(root+tmSlots, uint64(n))
			tx.Store(root+tmSlots+1, s)
			tx.Store(root+tmCount, 1)
			tx.Store(m.desc+tmRoot, uint64(root))
			tx.Store(m.desc+tmHeight, uint64(p.h+1))
			return
		}
		lvl--
		i = p.idx[lvl]
	}
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
	i, found := m.find(tx, k, &p)
	if !found {
		return 0, false
	}
	return tx.Load(p.node[p.h-1] + tmSlots + Ptr(i)), true
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
	i, found := m.find(tx, k, &p)
	if !found {
		return 0, false
	}
	prev = tx.Load(p.node[p.h-1] + tmSlots + Ptr(i))
	m.removeAt(tx, &p, i)
	tx.Store(m.desc+tmSize, tx.Load(m.desc+tmSize)-1)
	return prev, true
}

// removeAt removes key i and its value from the leaf of path p. A non-root
// node left with nothing is freed and removed from its parent instead —
// child c with key c−1, or key 0 when c is 0 — and a root inner node left
// with one child is replaced by it, down to a root with a key or a leaf.
func (m *TreeMap) removeAt(tx Tx, p *tmPath, i int) {
	lvl, ki, si := p.h-1, i, i
	for ; lvl > 0 && p.cnt[lvl]+p.inner(lvl) == 1; lvl-- {
		tx.Free(p.node[lvl])
		c := p.idx[lvl-1]
		ki, si = max(c-1, 0), c
	}
	n, cnt, in := p.node[lvl], p.cnt[lvl], p.inner(lvl)
	for j := ki; j < cnt-1; j++ {
		tx.Store(n+tmKeys+Ptr(j), tx.Load(n+tmKeys+Ptr(j+1)))
	}
	for j := si; j < cnt+in-1; j++ {
		tx.Store(n+tmSlots+Ptr(j), tx.Load(n+tmSlots+Ptr(j+1)))
	}
	tx.Store(n+tmCount, uint64(cnt-1))
	if lvl > 0 || cnt > 1 || p.h == 1 {
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
// the leaves left to right: past a leaf's last key it climbs the path to the
// first level with a child further right, stopping there if that child's
// separator is above hi, and descends along leftmost children.
func (m *TreeMap) Range(lo, hi uint64, max int) []Entry {
	if lo > hi || max <= 0 {
		return nil
	}
	packed := tm.Collect(m.e.Read, func(tx Tx) []uint64 {
		out := make([]uint64, 0, 2*min(max, 64))
		var p tmPath
		i, _ := m.find(tx, lo, &p)
		leaf := p.h - 1
		for {
			n := p.node[leaf]
			for ; i < p.cnt[leaf]; i++ {
				k := tx.Load(n + tmKeys + Ptr(i))
				if k > hi {
					return out
				}
				out = append(out, k, tx.Load(n+tmSlots+Ptr(i)))
				if len(out) == 2*max {
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
			n = Ptr(tx.Load(p.node[lvl] + tmSlots + Ptr(c)))
			for lvl++; ; lvl++ {
				p.node[lvl], p.cnt[lvl] = n, int(tx.Load(n+tmCount))
				if lvl == leaf {
					break
				}
				p.idx[lvl] = 0
				n = Ptr(tx.Load(n + tmSlots))
			}
			i = 0
		}
	})
	out := make([]Entry, 0, len(packed)/2)
	for i := 0; i+1 < len(packed); i += 2 {
		out = append(out, Entry{Key: packed[i], Val: packed[i+1]})
	}
	return out
}

// CheckInvariants verifies, in one read-only transaction, the B+-tree's
// shape: the layout tag, every count within a node's bounds, keys strictly
// ascending inside every separator interval, no empty leaf but the root, a
// root with a key whenever the height is above 1, and the stored size
// equal to the key count. Tests rely on it.
func (m *TreeMap) CheckInvariants() error {
	var err error
	m.e.Read(func(tx Tx) uint64 {
		err = m.checkTx(tx)
		return 0
	})
	return err
}

func (m *TreeMap) checkTx(tx Tx) error {
	if tx.Load(m.desc+tmLayout) != tmBTree {
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
		cnt := int(tx.Load(n + tmCount))
		if cnt > tmCap {
			return errNodeCount
		}
		prev, first := lo, true
		for j := 0; j < cnt; j++ {
			k := tx.Load(n + tmKeys + Ptr(j))
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
	errLayout       = errored("treemap: descriptor is not tagged as a B+-tree")
	errBadHeight    = errored("treemap: height outside [1, 24]")
	errRootOneChild = errored("treemap: inner root with a single child")
	errNodeCount    = errored("treemap: node count above capacity")
	errKeyOrder     = errored("treemap: key out of order or outside its separators")
	errEmptyLeaf    = errored("treemap: empty non-root leaf")
	errKeyCount     = errored("treemap: stored size does not match key count")
)
