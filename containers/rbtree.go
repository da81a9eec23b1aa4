package containers

import "onefile/internal/tm"

// RBTree is a red-black tree set of uint64 keys — the paper's "wait-free
// balanced tree" (§VI) and the workload of Figs. 6 and 10. It is the
// classic sequential red-black tree (CLRS formulation with a per-tree
// sentinel nil node) executed under a transactional engine: on OneFile the
// rebalancing rotations of an insert or delete commit atomically and, on
// the persistent engines, crash-atomically.
type RBTree struct {
	e    Engine
	desc Ptr // [0]=root, [1]=size, [2]=sentinel nil node
}

const (
	rbRoot = 0
	rbSize = 1
	rbNil  = 2

	tnKey    = 0
	tnVal    = 1
	tnLeft   = 2
	tnRight  = 3
	tnParent = 4
	tnColor  = 5

	tnWords = 6

	colorBlack = 0
	colorRed   = 1
)

// NewRBTree attaches to (or creates in) root slot rootSlot of e.
func NewRBTree(e Engine, rootSlot int) *RBTree {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr {
		d := tx.Alloc(3)
		nilNode := tx.Alloc(tnWords) // color is already 0 = black
		tx.Store(d+rbNil, uint64(nilNode))
		tx.Store(d+rbRoot, uint64(nilNode))
		return d
	})
	return &RBTree{e: e, desc: desc}
}

// small accessors — all traffic goes through the transaction.

func (t *RBTree) nilNode(tx Tx) Ptr { return Ptr(tx.Load(t.desc + rbNil)) }
func (t *RBTree) root(tx Tx) Ptr    { return Ptr(tx.Load(t.desc + rbRoot)) }

func key(tx Tx, n Ptr) uint64         { return tx.Load(n + tnKey) }
func left(tx Tx, n Ptr) Ptr           { return Ptr(tx.Load(n + tnLeft)) }
func right(tx Tx, n Ptr) Ptr          { return Ptr(tx.Load(n + tnRight)) }
func parent(tx Tx, n Ptr) Ptr         { return Ptr(tx.Load(n + tnParent)) }
func color(tx Tx, n Ptr) uint64       { return tx.Load(n + tnColor) }
func isRed(tx Tx, n Ptr) bool         { return tx.Load(n+tnColor) == colorRed }
func setLeft(tx Tx, n, v Ptr)         { tx.Store(n+tnLeft, uint64(v)) }
func setRight(tx Tx, n, v Ptr)        { tx.Store(n+tnRight, uint64(v)) }
func setParent(tx Tx, n, v Ptr)       { tx.Store(n+tnParent, uint64(v)) }
func setColor(tx Tx, n Ptr, c uint64) { tx.Store(n+tnColor, c) }

// Add inserts k; it reports whether the set changed.
func (t *RBTree) Add(k uint64) bool {
	return t.e.Update(func(tx Tx) uint64 { return boolWord(t.AddTx(tx, k)) }) == 1
}

// AddTx inserts k as part of the caller's transaction.
func (t *RBTree) AddTx(tx Tx, k uint64) bool {
	nilN := t.nilNode(tx)
	y := nilN
	x := t.root(tx)
	for x != nilN {
		y = x
		kx := key(tx, x)
		switch {
		case k == kx:
			return false
		case k < kx:
			x = left(tx, x)
		default:
			x = right(tx, x)
		}
	}
	z := tx.Alloc(tnWords)
	tx.Store(z+tnKey, k)
	tx.Store(z+tnVal, 0) // unused by a set; stored so an Add writes the words it always has
	setLeft(tx, z, nilN)
	setRight(tx, z, nilN)
	setParent(tx, z, y)
	setColor(tx, z, colorRed)
	if y == nilN {
		tx.Store(t.desc+rbRoot, uint64(z))
	} else if k < key(tx, y) {
		setLeft(tx, y, z)
	} else {
		setRight(tx, y, z)
	}
	t.insertFixup(tx, z)
	tx.Store(t.desc+rbSize, tx.Load(t.desc+rbSize)+1)
	return true
}

func (t *RBTree) rotateLeft(tx Tx, x Ptr) {
	nilN := t.nilNode(tx)
	y := right(tx, x)
	yl := left(tx, y)
	setRight(tx, x, yl)
	if yl != nilN {
		setParent(tx, yl, x)
	}
	xp := parent(tx, x)
	setParent(tx, y, xp)
	if xp == nilN {
		tx.Store(t.desc+rbRoot, uint64(y))
	} else if x == left(tx, xp) {
		setLeft(tx, xp, y)
	} else {
		setRight(tx, xp, y)
	}
	setLeft(tx, y, x)
	setParent(tx, x, y)
}

func (t *RBTree) rotateRight(tx Tx, x Ptr) {
	nilN := t.nilNode(tx)
	y := left(tx, x)
	yr := right(tx, y)
	setLeft(tx, x, yr)
	if yr != nilN {
		setParent(tx, yr, x)
	}
	xp := parent(tx, x)
	setParent(tx, y, xp)
	if xp == nilN {
		tx.Store(t.desc+rbRoot, uint64(y))
	} else if x == right(tx, xp) {
		setRight(tx, xp, y)
	} else {
		setLeft(tx, xp, y)
	}
	setRight(tx, y, x)
	setParent(tx, x, y)
}

func (t *RBTree) insertFixup(tx Tx, z Ptr) {
	for isRed(tx, parent(tx, z)) {
		zp := parent(tx, z)
		zpp := parent(tx, zp)
		if zp == left(tx, zpp) {
			u := right(tx, zpp) // uncle
			if isRed(tx, u) {
				setColor(tx, zp, colorBlack)
				setColor(tx, u, colorBlack)
				setColor(tx, zpp, colorRed)
				z = zpp
				continue
			}
			if z == right(tx, zp) {
				z = zp
				t.rotateLeft(tx, z)
				zp = parent(tx, z)
				zpp = parent(tx, zp)
			}
			setColor(tx, zp, colorBlack)
			setColor(tx, zpp, colorRed)
			t.rotateRight(tx, zpp)
			continue
		}
		u := left(tx, zpp)
		if isRed(tx, u) {
			setColor(tx, zp, colorBlack)
			setColor(tx, u, colorBlack)
			setColor(tx, zpp, colorRed)
			z = zpp
			continue
		}
		if z == left(tx, zp) {
			z = zp
			t.rotateRight(tx, z)
			zp = parent(tx, z)
			zpp = parent(tx, zp)
		}
		setColor(tx, zp, colorBlack)
		setColor(tx, zpp, colorRed)
		t.rotateLeft(tx, zpp)
	}
	setColor(tx, t.root(tx), colorBlack)
}

// findNode returns the node with key k, or the sentinel.
func (t *RBTree) findNode(tx Tx, k uint64) Ptr {
	nilN := t.nilNode(tx)
	x := t.root(tx)
	for x != nilN {
		kx := key(tx, x)
		switch {
		case k == kx:
			return x
		case k < kx:
			x = left(tx, x)
		default:
			x = right(tx, x)
		}
	}
	return nilN
}

// transplant replaces subtree u with subtree v.
func (t *RBTree) transplant(tx Tx, u, v Ptr) {
	up := parent(tx, u)
	if up == t.nilNode(tx) {
		tx.Store(t.desc+rbRoot, uint64(v))
	} else if u == left(tx, up) {
		setLeft(tx, up, v)
	} else {
		setRight(tx, up, v)
	}
	setParent(tx, v, up)
}

// Remove deletes k; it reports whether the set changed.
func (t *RBTree) Remove(k uint64) bool {
	return t.e.Update(func(tx Tx) uint64 { return boolWord(t.RemoveTx(tx, k)) }) == 1
}

// RemoveTx deletes k as part of the caller's transaction.
func (t *RBTree) RemoveTx(tx Tx, k uint64) bool {
	nilN := t.nilNode(tx)
	z := t.findNode(tx, k)
	if z == nilN {
		return false
	}
	y := z
	yWasBlack := !isRed(tx, y)
	var x Ptr
	if left(tx, z) == nilN {
		x = right(tx, z)
		t.transplant(tx, z, x)
	} else if right(tx, z) == nilN {
		x = left(tx, z)
		t.transplant(tx, z, x)
	} else {
		// y = successor of z (minimum of right subtree).
		y = right(tx, z)
		for left(tx, y) != nilN {
			y = left(tx, y)
		}
		yWasBlack = !isRed(tx, y)
		x = right(tx, y)
		if parent(tx, y) == z {
			setParent(tx, x, y) // x may be the sentinel; that is fine
		} else {
			t.transplant(tx, y, x)
			zr := right(tx, z)
			setRight(tx, y, zr)
			setParent(tx, zr, y)
		}
		t.transplant(tx, z, y)
		zl := left(tx, z)
		setLeft(tx, y, zl)
		setParent(tx, zl, y)
		setColor(tx, y, color(tx, z))
	}
	if yWasBlack {
		t.deleteFixup(tx, x)
	}
	tx.Store(t.desc+rbSize, tx.Load(t.desc+rbSize)-1)
	tx.Free(z)
	return true
}

func (t *RBTree) deleteFixup(tx Tx, x Ptr) {
	for x != t.root(tx) && !isRed(tx, x) {
		xp := parent(tx, x)
		if x == left(tx, xp) {
			w := right(tx, xp)
			if isRed(tx, w) {
				setColor(tx, w, colorBlack)
				setColor(tx, xp, colorRed)
				t.rotateLeft(tx, xp)
				xp = parent(tx, x)
				w = right(tx, xp)
			}
			if !isRed(tx, left(tx, w)) && !isRed(tx, right(tx, w)) {
				setColor(tx, w, colorRed)
				x = xp
				continue
			}
			if !isRed(tx, right(tx, w)) {
				setColor(tx, left(tx, w), colorBlack)
				setColor(tx, w, colorRed)
				t.rotateRight(tx, w)
				xp = parent(tx, x)
				w = right(tx, xp)
			}
			setColor(tx, w, color(tx, xp))
			setColor(tx, xp, colorBlack)
			setColor(tx, right(tx, w), colorBlack)
			t.rotateLeft(tx, xp)
			x = t.root(tx)
			continue
		}
		w := left(tx, xp)
		if isRed(tx, w) {
			setColor(tx, w, colorBlack)
			setColor(tx, xp, colorRed)
			t.rotateRight(tx, xp)
			xp = parent(tx, x)
			w = left(tx, xp)
		}
		if !isRed(tx, right(tx, w)) && !isRed(tx, left(tx, w)) {
			setColor(tx, w, colorRed)
			x = xp
			continue
		}
		if !isRed(tx, left(tx, w)) {
			setColor(tx, right(tx, w), colorBlack)
			setColor(tx, w, colorRed)
			t.rotateLeft(tx, w)
			xp = parent(tx, x)
			w = left(tx, xp)
		}
		setColor(tx, w, color(tx, xp))
		setColor(tx, xp, colorBlack)
		setColor(tx, left(tx, w), colorBlack)
		t.rotateRight(tx, xp)
		x = t.root(tx)
	}
	setColor(tx, x, colorBlack)
}

// Contains reports whether k is in the set (read-only transaction).
func (t *RBTree) Contains(k uint64) bool {
	return t.e.Read(func(tx Tx) uint64 { return boolWord(t.ContainsTx(tx, k)) }) == 1
}

// ContainsTx reports membership inside the caller's transaction.
func (t *RBTree) ContainsTx(tx Tx, k uint64) bool {
	return t.findNode(tx, k) != t.nilNode(tx)
}

// Len returns the number of keys.
func (t *RBTree) Len() int {
	return int(t.e.Read(func(tx Tx) uint64 { return tx.Load(t.desc + rbSize) }))
}

// Min returns the smallest key.
func (t *RBTree) Min() (uint64, bool) {
	return unpack(t.e.Read(func(tx Tx) uint64 {
		nilN := t.nilNode(tx)
		x := t.root(tx)
		if x == nilN {
			return pack(0, false)
		}
		for left(tx, x) != nilN {
			x = left(tx, x)
		}
		return pack(key(tx, x), true)
	}))
}

// Max returns the largest key.
func (t *RBTree) Max() (uint64, bool) {
	return unpack(t.e.Read(func(tx Tx) uint64 {
		nilN := t.nilNode(tx)
		x := t.root(tx)
		if x == nilN {
			return pack(0, false)
		}
		for right(tx, x) != nilN {
			x = right(tx, x)
		}
		return pack(key(tx, x), true)
	}))
}

// Keys returns up to max keys in ascending order from one consistent
// read-only transaction (a linearizable range scan).
func (t *RBTree) Keys(max int) []uint64 {
	return tm.Collect(t.e.Read, func(tx Tx) []uint64 {
		var out []uint64
		nilN := t.nilNode(tx)
		var walk func(n Ptr)
		walk = func(n Ptr) {
			if n == nilN || len(out) >= max {
				return
			}
			walk(left(tx, n))
			if len(out) < max {
				out = append(out, key(tx, n))
			}
			walk(right(tx, n))
		}
		walk(t.root(tx))
		return out
	})
}

// CheckInvariants verifies, in one read-only transaction, the red-black
// invariants: the root is black, no red node has a red child, every path
// carries the same number of black nodes, keys are ordered, and the stored
// size matches the node count. Tests rely on it.
func (t *RBTree) CheckInvariants() error {
	var err error
	t.e.Read(func(tx Tx) uint64 {
		err = t.checkTx(tx)
		return 0
	})
	return err
}

func (t *RBTree) checkTx(tx Tx) error {
	nilN := t.nilNode(tx)
	root := t.root(tx)
	if root != nilN && isRed(tx, root) {
		return errRedRoot
	}
	count := uint64(0)
	var walk func(n Ptr, lo, hi uint64) (blackHeight int, err error)
	walk = func(n Ptr, lo, hi uint64) (int, error) {
		if n == nilN {
			return 1, nil
		}
		count++
		k := key(tx, n)
		if k < lo || k > hi {
			return 0, errOutOfOrder
		}
		if isRed(tx, n) && (isRed(tx, left(tx, n)) || isRed(tx, right(tx, n))) {
			return 0, errRedRed
		}
		hiL := k
		if k > 0 {
			hiL = k - 1
		}
		bl, err := walk(left(tx, n), lo, hiL)
		if err != nil {
			return 0, err
		}
		br, err := walk(right(tx, n), k+1, hi)
		if err != nil {
			return 0, err
		}
		if bl != br {
			return 0, errBlackHeight
		}
		if !isRed(tx, n) {
			bl++
		}
		return bl, nil
	}
	_, err := walk(root, 0, ^uint64(0))
	if err != nil {
		return err
	}
	if count != tx.Load(t.desc+rbSize) {
		return errSizeMismatch
	}
	return nil
}

// Red-black invariant violations reported by CheckInvariants.
var (
	errRedRoot      = errored("rbtree: root is red")
	errRedRed       = errored("rbtree: red node with red child")
	errBlackHeight  = errored("rbtree: unequal black heights")
	errOutOfOrder   = errored("rbtree: keys out of order")
	errSizeMismatch = errored("rbtree: stored size does not match node count")
)

type errored string

func (e errored) Error() string { return string(e) }
