package vm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/estelle/types"
)

// putCell installs v at addr, keeping the slot slice address-sorted and
// next past every live address. Tests use it to build heaps whose addresses
// Alloc would not hand out in that order.
func putCell(h *Heap, addr int64, v Value) {
	h.ensureOwned()
	c := &cell{v: v, gen: h.gen}
	if i, ok := h.find(addr); ok {
		h.slots[i].c = c
	} else {
		h.slots = slices.Insert(h.slots, i, slot{addr: addr, c: c})
	}
	if addr >= h.next {
		h.next = addr + 1
	}
}

// heapEntry is one live state of a snapshot family together with a plain
// map model of what its heap must hold.
type heapEntry struct {
	st    *State
	cells map[int64]Value
	next  int64
}

func newHeapEntry() *heapEntry {
	return &heapEntry{
		st:    &State{FSM: 2, Globals: []Value{MakeInt(7)}, Heap: NewHeap()},
		cells: make(map[int64]Value),
		next:  1,
	}
}

func (e *heapEntry) snapshot() *heapEntry {
	cells := make(map[int64]Value, len(e.cells))
	for a, v := range e.cells {
		cells[a] = v.Copy()
	}
	return &heapEntry{st: e.st.Snapshot(), cells: cells, next: e.next}
}

// randLive returns a random live address of the model, or 0 when empty.
func (e *heapEntry) randLive(r *rand.Rand) int64 {
	if len(e.cells) == 0 {
		return 0
	}
	addrs := make([]int64, 0, len(e.cells))
	for a := range e.cells {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs[r.Intn(len(addrs))]
}

// step applies one random heap operation to e and mirrors it in the model.
// It returns a snapshot of e when the operation was Snapshot.
func (e *heapEntry) step(r *rand.Rand, cellT *types.Type) (*heapEntry, error) {
	h := e.st.Heap
	switch op := r.Intn(10); {
	case op < 3: // Alloc
		t := cellT
		if r.Intn(3) == 0 {
			t = types.Int
		}
		undef := r.Intn(4) == 0
		if a := h.Alloc(t, undef); a != e.next {
			return nil, fmt.Errorf("Alloc returned %d, want %d", a, e.next)
		}
		e.cells[e.next] = Zero(t, undef)
		e.next++
	case op < 6: // Get + write
		a := e.randLive(r)
		if a == 0 {
			return nil, nil
		}
		v, err := h.Get(a)
		if err != nil {
			return nil, fmt.Errorf("Get(%d): %v", a, err)
		}
		if v.Elems != nil {
			k := r.Intn(len(v.Elems))
			v.Elems[k] = Value{T: v.Elems[k].T, I: r.Int63n(100)}
		} else {
			v.Undef, v.I = false, r.Int63n(100)
		}
		e.cells[a] = v.Copy()
	case op < 7: // Load of a live, a dangling and the nil address
		if a := e.randLive(r); a != 0 {
			v, err := h.Load(a)
			if err != nil {
				return nil, fmt.Errorf("Load(%d): %v", a, err)
			}
			want := e.cells[a]
			if got, want := valueFP(v), valueFP(&want); got != want {
				return nil, fmt.Errorf("Load(%d) = %s, model %s", a, got, want)
			}
		}
		if _, err := h.Load(e.next); err == nil {
			return nil, fmt.Errorf("Load(%d) of an unallocated address succeeded", e.next)
		}
		if _, err := h.Get(0); err == nil {
			return nil, fmt.Errorf("Get(0) succeeded")
		}
	case op < 9: // Dispose
		a := e.randLive(r)
		if a == 0 {
			return nil, nil
		}
		if err := h.Dispose(a); err != nil {
			return nil, fmt.Errorf("Dispose(%d): %v", a, err)
		}
		delete(e.cells, a)
		if err := h.Dispose(a); err == nil {
			return nil, fmt.Errorf("second Dispose(%d) succeeded", a)
		}
	default:
		return e.snapshot(), nil
	}
	return nil, nil
}

func valueFP(v *Value) string {
	var sb strings.Builder
	v.Fingerprint(&sb)
	return sb.String()
}

// check compares e's heap against its model: Len, every value, the
// canonical Fingerprint, and State.Hash64 against a digest computed from
// the model alone (per-cell FNV-1a over "@addr"+payload, XOR-combined, then
// mixed as 8 little-endian bytes after the "F<fsm>|globals|" prefix).
func (e *heapEntry) check() error {
	h := e.st.Heap
	if h.Len() != len(e.cells) {
		return fmt.Errorf("Len = %d, model %d", h.Len(), len(e.cells))
	}
	addrs := make([]int64, 0, len(e.cells))
	for a := range e.cells {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	var fp strings.Builder
	var acc uint64
	for _, a := range addrs {
		v, err := h.Load(a)
		if err != nil {
			return fmt.Errorf("Load(%d): %v", a, err)
		}
		want := e.cells[a]
		cellFP := fmt.Sprintf("@%d%s", a, valueFP(&want))
		if got := fmt.Sprintf("@%d%s", a, valueFP(v)); got != cellFP {
			return fmt.Errorf("cell %s, model %s", got, cellFP)
		}
		fp.WriteString(cellFP)
		acc ^= fnv1aString(cellFP)
	}
	var got strings.Builder
	h.Fingerprint(&got)
	if got.String() != fp.String() {
		return fmt.Errorf("Fingerprint %q, model %q", got.String(), fp.String())
	}
	prefix := fmt.Sprintf("F%d|%s|", e.st.FSM, valueFP(&e.st.Globals[0]))
	want := fnv1aString(prefix + string(binary.LittleEndian.AppendUint64(nil, acc)))
	if h := e.st.Hash64(); h != want {
		return fmt.Errorf("Hash64 = %#x, model digest %#x", h, want)
	}
	return nil
}

// TestHeapDifferential drives random Alloc/Get+write/Load/Dispose/Snapshot/
// ReleaseState sequences over one snapshot family and, after every step,
// checks every live heap of the family against its map model.
func TestHeapDifferential(t *testing.T) {
	cellT, _ := tp0Cell()
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		family := []*heapEntry{newHeapEntry()}
		for stepN := 0; stepN < 400; stepN++ {
			if len(family) > 1 && r.Intn(12) == 0 {
				i := r.Intn(len(family))
				ReleaseState(family[i].st)
				family = slices.Delete(family, i, i+1)
			} else {
				snap, err := family[r.Intn(len(family))].step(r, cellT)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, stepN, err)
				}
				if snap != nil {
					family = append(family, snap)
				}
			}
			for i, e := range family {
				if err := e.check(); err != nil {
					t.Fatalf("seed %d step %d heap %d: %v", seed, stepN, i, err)
				}
			}
		}
	}
}

// TestHeapDifferentialAcrossGoroutines is the concurrent variant: each round
// hands every heap of one family to one of several goroutines over a
// channel, so heaps that share slot arrays and cells run on different
// goroutines at once (run with -race). Between rounds the main goroutine
// checks every heap against its model and releases some.
func TestHeapDifferentialAcrossGoroutines(t *testing.T) {
	const workers, rounds, steps, maxFamily = 4, 40, 12, 16
	cellT, _ := tp0Cell()
	r := rand.New(rand.NewSource(11))
	family := []*heapEntry{newHeapEntry()}
	for round := 0; round < rounds; round++ {
		jobs := make(chan *heapEntry, len(family))
		results := make(chan []*heapEntry, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				wr := rand.New(rand.NewSource(seed))
				var out []*heapEntry
				for e := range jobs {
					out = append(out, e)
					for i := 0; i < steps; i++ {
						snap, err := e.step(wr, cellT)
						if err == nil {
							err = e.check()
						}
						if err != nil {
							t.Error(err)
							break
						}
						if snap != nil {
							out = append(out, snap)
						}
					}
				}
				results <- out
			}(r.Int63())
		}
		for _, e := range family {
			jobs <- e
		}
		close(jobs)
		wg.Wait()
		close(results)
		family = family[:0]
		for out := range results {
			family = append(family, out...)
		}
		if t.Failed() {
			t.FailNow()
		}
		for i, e := range family {
			if err := e.check(); err != nil {
				t.Fatalf("round %d heap %d: %v", round, i, err)
			}
		}
		for len(family) > maxFamily || (len(family) > 1 && r.Intn(3) == 0) {
			i := r.Intn(len(family))
			ReleaseState(family[i].st)
			family = slices.Delete(family, i, i+1)
		}
	}
}
