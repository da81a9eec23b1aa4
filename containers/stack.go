package containers

// Stack is an unbounded LIFO stack of uint64 values — the structure the
// paper uses to illustrate the wait-free algorithm's operation (§III-E,
// Fig. 1).
type Stack struct {
	e    Engine
	desc Ptr // [0]=top, [1]=length
}

const (
	stTop = 0
	stLen = 1

	snVal  = 0
	snNext = 1
)

// NewStack attaches to (or creates in) root slot rootSlot of e.
func NewStack(e Engine, rootSlot int) *Stack {
	desc := initRoot(e, rootSlot, func(tx Tx) Ptr { return tx.Alloc(2) })
	return &Stack{e: e, desc: desc}
}

// Push adds v in its own transaction.
func (s *Stack) Push(v uint64) {
	s.e.Update(func(tx Tx) uint64 {
		s.PushTx(tx, v)
		return 0
	})
}

// PushTx adds v as part of the caller's transaction.
func (s *Stack) PushTx(tx Tx, v uint64) {
	n := tx.Alloc(2)
	tx.Store(n+snVal, v)
	tx.Store(n+snNext, tx.Load(s.desc+stTop))
	tx.Store(s.desc+stTop, uint64(n))
	tx.Store(s.desc+stLen, tx.Load(s.desc+stLen)+1)
}

// Pop removes and returns the newest value; ok is false when empty.
func (s *Stack) Pop() (v uint64, ok bool) {
	return unpack(s.e.Update(func(tx Tx) uint64 {
		v, ok := s.PopTx(tx)
		return pack(v, ok)
	}))
}

// PopTx removes the newest value as part of the caller's transaction.
func (s *Stack) PopTx(tx Tx) (v uint64, ok bool) {
	top := Ptr(tx.Load(s.desc + stTop))
	if top == 0 {
		return 0, false
	}
	v = tx.Load(top + snVal)
	tx.Store(s.desc+stTop, tx.Load(top+snNext))
	tx.Store(s.desc+stLen, tx.Load(s.desc+stLen)-1)
	tx.Free(top)
	return v, true
}

// Len returns the current length.
func (s *Stack) Len() int {
	return int(s.e.Read(func(tx Tx) uint64 { return tx.Load(s.desc + stLen) }))
}

// Peek returns the newest value without removing it.
func (s *Stack) Peek() (v uint64, ok bool) {
	return unpack(s.e.Read(func(tx Tx) uint64 {
		top := Ptr(tx.Load(s.desc + stTop))
		if top == 0 {
			return pack(0, false)
		}
		return pack(tx.Load(top+snVal), true)
	}))
}
