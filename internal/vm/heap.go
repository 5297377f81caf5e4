package vm

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/estelle/types"
)

// cell is one heap allocation together with the ownership generation of the
// heap that last wrote it. A heap may mutate a cell in place only when the
// cell's gen equals the heap's own gen; any other cell is potentially shared
// with snapshots and must be copied before the first write (copy-on-write).
type cell struct {
	v   Value
	gen uint64
}

// newCell allocates a cell for a composite value of n elements. Small
// element arrays share the cell's allocation: heap cells are mostly small
// records (list nodes), so new() and the copy-on-write in Get cost one
// allocation instead of two.
func newCell(n int) (*cell, []Value) {
	switch n {
	case 1:
		x := new(struct {
			c cell
			e [1]Value
		})
		return &x.c, x.e[:]
	case 2:
		x := new(struct {
			c cell
			e [2]Value
		})
		return &x.c, x.e[:]
	case 3:
		x := new(struct {
			c cell
			e [3]Value
		})
		return &x.c, x.e[:]
	case 4:
		x := new(struct {
			c cell
			e [4]Value
		})
		return &x.c, x.e[:]
	}
	return new(cell), make([]Value, n)
}

// zeroCell returns a cell holding Zero(t, undef).
func zeroCell(t *types.Type, undef bool, gen uint64) *cell {
	var elem func(i int) *types.Type
	n := 0
	switch t.Kind {
	case types.Array:
		n, elem = t.ArrayLen(), func(int) *types.Type { return t.Elem }
	case types.Record:
		n, elem = len(t.Fields), func(i int) *types.Type { return t.Fields[i].Type }
	default:
		return &cell{v: Zero(t, undef), gen: gen}
	}
	c, elems := newCell(n)
	for i := range elems {
		elems[i] = Zero(elem(i), undef)
	}
	c.v, c.gen = Value{T: t, Elems: elems}, gen
	return c
}

// copyCell returns a cell holding v.Copy().
func copyCell(v *Value, gen uint64) *cell {
	if v.Elems == nil {
		return &cell{v: v.Copy(), gen: gen}
	}
	c, elems := newCell(len(v.Elems))
	for i := range elems {
		elems[i] = v.Elems[i].Copy()
	}
	c.v, c.gen = *v, gen
	c.v.Elems = elems
	if v.Words != nil {
		c.v.Words = make([]uint64, len(v.Words))
		copy(c.v.Words, v.Words)
	}
	return c
}

// Heap models Estelle dynamic memory (new/dispose). Addresses are opaque
// positive integers; 0 is nil. The heap supports snapshot/restore, which is
// what makes backtracking over transitions that allocate memory possible
// (§3.2.2 of the paper discusses the cost of exactly this operation).
//
// Live cells sit in a slice of {addr, *cell} slots sorted by address.
// Addresses only grow, so Alloc appends; lookups binary-search. Snapshot is
// O(1): it shares the slot slice between the two heaps and bumps a
// family-wide generation counter so that neither side owns any existing
// cell. The first write on either side lazily copies the slot slice (one
// copy of pointers, ensureOwned) and then just the written cell, so branches
// that never touch dynamic memory pay nothing for it.
//
// Concurrency contract: each Heap (and the State wrapping it) is owned by
// exactly one goroutine at a time — Snapshot and the write paths mutate the
// struct's ownership fields without locks. Distinct heaps of the same
// snapshot family MAY live on different goroutines simultaneously, provided
// every handoff of a heap between goroutines goes through a happens-before
// edge (channel send, mutex, or an atomic publish such as the analysis
// work-stealing deque). Family-wide safety rests on three invariants:
//
//  1. the generation counter shared by the family is atomic;
//  2. a slot slice's backing array referenced by more than one heap is never
//     written — both sides of a Snapshot carry shared=true and copy before
//     their first write, so shared=false implies exclusive ownership of the
//     backing array, including any capacity past its length;
//  3. a cell payload is mutated in place only when cell.gen == heap.gen,
//     which holds only for cells created or COW-copied by this heap after
//     its last Snapshot — such cells are reachable from this heap alone.
//
// The -race tests in this package exercise exactly this cross-goroutine
// sharing. The parallel search in internal/analysis relies on it.
type Heap struct {
	slots []slot // live cells, strictly increasing addresses
	next  int64

	// Allocs and Disposes count lifetime operations, for statistics.
	Allocs, Disposes int64

	gen    uint64         // ownership generation: cells with this gen are exclusively ours
	genCtr *atomic.Uint64 // generation counter shared across the snapshot family
	shared bool           // the slots backing array may be aliased by other heaps in the family

	// spare is an exclusively owned, empty slot array that a released heap
	// left behind (see ReleaseState); ensureOwned copies into it instead of
	// allocating.
	spare []slot
}

// slot is one live cell and its address.
type slot struct {
	addr int64
	c    *cell
}

// NewHeap returns an empty heap rooting a fresh snapshot family.
func NewHeap() *Heap {
	ctr := new(atomic.Uint64)
	ctr.Store(1)
	return &Heap{next: 1, gen: 1, genCtr: ctr}
}

// ownedBuf returns an empty, exclusively owned slot array of capacity at
// least n, reusing the spare array when it is large enough.
func (h *Heap) ownedBuf(n int) []slot {
	buf := h.spare[:0]
	h.spare = nil
	if cap(buf) < n {
		buf = make([]slot, 0, n)
	}
	return buf
}

// ensureOwned makes the slot slice exclusively ours, copying the container
// (pointers only, not payloads) if a snapshot may still alias it. The copy
// leaves room for one Alloc.
func (h *Heap) ensureOwned() {
	if !h.shared {
		return
	}
	h.slots = append(h.ownedBuf(len(h.slots)+1), h.slots...)
	h.shared = false
}

// find returns the index of addr's slot and whether it is live; when it is
// not, the index is where it would be inserted.
func (h *Heap) find(addr int64) (int, bool) {
	lo, hi := 0, len(h.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.slots[m].addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(h.slots) && h.slots[lo].addr == addr
}

// Alloc allocates a cell of type t and returns its address. With undef set
// the new cell's scalars start undefined (partial-trace mode).
func (h *Heap) Alloc(t *types.Type, undef bool) int64 {
	h.ensureOwned()
	addr := h.next
	h.next++
	h.slots = append(h.slots, slot{addr: addr, c: zeroCell(t, undef, h.gen)})
	h.Allocs++
	return addr
}

// Get returns the cell at addr for writing, copying it first if a snapshot
// may still share it. Use Load for read-only access.
func (h *Heap) Get(addr int64) (*Value, error) {
	i, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	c := h.slots[i].c
	if c.gen != h.gen {
		h.ensureOwned()
		c = copyCell(&c.v, h.gen)
		h.slots[i].c = c
	}
	return &c.v, nil
}

// Load returns the cell at addr for reading only. The returned value must
// not be mutated through: it may be shared with snapshots of this heap.
func (h *Heap) Load(addr int64) (*Value, error) {
	i, err := h.lookup(addr)
	if err != nil {
		return nil, err
	}
	return &h.slots[i].c.v, nil
}

func (h *Heap) lookup(addr int64) (int, error) {
	if addr == 0 {
		return 0, fmt.Errorf("nil pointer dereference")
	}
	i, ok := h.find(addr)
	if !ok {
		return 0, fmt.Errorf("dangling pointer dereference (address %d)", addr)
	}
	return i, nil
}

// Dispose frees the cell at addr. On a shared heap the owned copy of the
// slot slice is built without the freed slot, in the same pass.
func (h *Heap) Dispose(addr int64) error {
	if addr == 0 {
		return fmt.Errorf("dispose of nil pointer")
	}
	i, ok := h.find(addr)
	if !ok {
		return fmt.Errorf("dispose of unallocated address %d", addr)
	}
	if h.shared {
		buf := append(h.ownedBuf(len(h.slots)), h.slots[:i]...)
		h.slots = append(buf, h.slots[i+1:]...)
		h.shared = false
	} else {
		h.slots = slices.Delete(h.slots, i, i+1) // zeroes the vacated tail slot
	}
	h.Disposes++
	return nil
}

// Len returns the number of live cells.
func (h *Heap) Len() int { return len(h.slots) }

// Snapshot returns a logically independent copy of the heap in O(1): the
// slot slice is shared and both heaps give up ownership of every existing
// cell by taking fresh generations, so the first write on either side copies
// the slot slice and just the cell it touches. Allocation counters carry
// over so that addresses allocated after a restore do not collide with
// addresses that may still be referenced by other saved states.
func (h *Heap) Snapshot() *Heap {
	// One atomic bump hands out two fresh generations, one per side; the
	// counter is the only family-wide mutable datum, so snapshots of
	// *different* heaps in the family may race benignly from different
	// goroutines (the heap structs themselves stay single-owner).
	g := h.genCtr.Add(2)
	h.gen = g - 1
	out := allocHeap()
	*out = Heap{
		slots:    h.slots,
		next:     h.next,
		Allocs:   h.Allocs,
		Disposes: h.Disposes,
		gen:      g,
		genCtr:   h.genCtr,
		shared:   true,
		spare:    out.spare,
	}
	h.shared = true
	return out
}

// DeepSnapshot returns an eagerly deep-copied heap rooting a fresh snapshot
// family. It is the legacy Save strategy, kept for before/after benchmarking
// (analysis.Options.EagerSnapshots) and for callers that want a state with
// no structural sharing at all (checkpointing).
func (h *Heap) DeepSnapshot() *Heap {
	ctr := new(atomic.Uint64)
	ctr.Store(1)
	out := &Heap{
		slots:    make([]slot, len(h.slots)),
		next:     h.next,
		Allocs:   h.Allocs,
		Disposes: h.Disposes,
		gen:      1,
		genCtr:   ctr,
	}
	for i, s := range h.slots {
		out.slots[i] = slot{addr: s.addr, c: &cell{v: s.c.v.Copy(), gen: 1}}
	}
	return out
}

// Fingerprint writes a canonical representation of the heap reachable-state
// into sb. Cells are visited in address order, which is slot order; because
// address allocation is deterministic along any execution path, equal heaps
// along different paths of the same search produce equal fingerprints
// whenever their allocation histories coincide.
func (h *Heap) Fingerprint(sb *strings.Builder) {
	for _, s := range h.slots {
		fmt.Fprintf(sb, "@%d", s.addr)
		s.c.v.Fingerprint(sb)
	}
}

// State is the VM half of a TAM state (§2.3 of the paper): the FSM control
// state expressed as an ordinal, the values of all global module variables,
// and dynamic memory. Queue states (trace cursors) are layered on top by the
// analyzer.
type State struct {
	FSM     int
	Globals []Value
	Heap    *Heap

	// pooled is set while the container sits in the state pool, turning a
	// double ReleaseState into an immediate panic instead of silently
	// corrupting whatever search the pool re-issued the struct to. Best
	// effort by design: the flag clears as soon as the pool re-issues it.
	pooled bool
	// own is the debug-mode single-owner assertion: zero-sized in normal
	// builds, an atomic guard under -race (see owner_race.go).
	own stateOwner
}

// Snapshot returns a logically independent copy of the state (the paper's
// Save operation, minus queue cursors which the analyzer copies itself).
// Globals are deep-copied into a pooled state; the heap is shared
// copy-on-write (see Heap.Snapshot). States obtained here may be handed back
// with ReleaseState once provably unreachable.
func (s *State) Snapshot() *State {
	s.own.acquire()
	defer s.own.release()
	out := allocState(len(s.Globals))
	out.FSM = s.FSM
	for i := range s.Globals {
		copyValueInto(&out.Globals[i], &s.Globals[i])
	}
	out.Heap = s.Heap.Snapshot()
	return out
}

// DeepSnapshot returns an eagerly deep-copied state with no structural
// sharing (the legacy Save strategy; see Heap.DeepSnapshot).
func (s *State) DeepSnapshot() *State {
	out := &State{FSM: s.FSM, Globals: make([]Value, len(s.Globals)), Heap: s.Heap.DeepSnapshot()}
	for i := range s.Globals {
		out.Globals[i] = s.Globals[i].Copy()
	}
	return out
}

// ApproxBytes estimates how much memory this state's payload occupies: one
// Value header per global, per heap cell, and per nested element, plus the
// backing arrays of composites (array/record element headers, set words).
// It moves with the quantity §3.2.2 worries about — the per-Save cost of
// deep state copying — and sizes the dead-state memo's byte budget. The
// observability layer feeds it to the snapshot-bytes metric.
func (s *State) ApproxBytes() int64 {
	const valueHeader = 64 // unsafe.Sizeof(Value{}) rounded up to a cache line
	total := int64(valueHeader)
	for i := range s.Globals {
		total += s.Globals[i].approxBytes()
	}
	for _, sl := range s.Heap.slots {
		total += sl.c.v.approxBytes()
	}
	return total
}

func (v *Value) approxBytes() int64 {
	const valueHeader = 64
	total := int64(valueHeader)
	for i := range v.Elems {
		total += v.Elems[i].approxBytes()
	}
	total += int64(len(v.Words)) * 8
	return total
}

// Fingerprint returns a canonical string for visited-state hashing. It is
// the authoritative collision-free form; Hash64 is the fast 64-bit digest of
// the same byte stream.
func (s *State) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "F%d|", s.FSM)
	for i := range s.Globals {
		s.Globals[i].Fingerprint(&sb)
	}
	sb.WriteByte('|')
	s.Heap.Fingerprint(&sb)
	return sb.String()
}
