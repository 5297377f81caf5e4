package vm

import "sync"

// Snapshot pooling: the MDFS search creates and discards states at every
// branch point, and the restore path in particular produces short-lived
// states whose only purpose is to seed one transition attempt. Pooling the
// State and Heap containers (and reusing Globals backing arrays via
// copyValueInto) keeps those allocations off the garbage collector's plate.
//
// Only containers are pooled — never cell payloads, which may be structurally
// shared across a snapshot family. A state may be released only when its
// owner can prove nothing else references it (the analyzer releases exactly
// the restore-path states whose candidate failed and that were never
// snapshot). sync.Pool is safe for concurrent use, so distinct goroutines'
// heap families may share the pools even though each family is confined.

var (
	statePool = sync.Pool{New: func() any { return new(State) }}
	heapPool  = sync.Pool{New: func() any { return new(Heap) }}
)

func allocState(nglobals int) *State {
	s := statePool.Get().(*State)
	s.pooled = false
	if cap(s.Globals) >= nglobals {
		s.Globals = s.Globals[:nglobals]
	} else {
		s.Globals = make([]Value, nglobals)
	}
	return s
}

func allocHeap() *Heap {
	return heapPool.Get().(*Heap)
}

// copyValueInto deep-copies src into dst, reusing dst's Elems and Words
// backing arrays when they are large enough. dst must be exclusively owned
// by the caller.
func copyValueInto(dst, src *Value) {
	dst.T = src.T
	dst.Undef = src.Undef
	dst.I = src.I
	if src.Elems == nil {
		dst.Elems = nil
	} else {
		if cap(dst.Elems) >= len(src.Elems) {
			dst.Elems = dst.Elems[:len(src.Elems)]
		} else {
			dst.Elems = make([]Value, len(src.Elems))
		}
		for i := range src.Elems {
			copyValueInto(&dst.Elems[i], &src.Elems[i])
		}
	}
	if src.Words == nil {
		dst.Words = nil
	} else {
		if cap(dst.Words) >= len(src.Words) {
			dst.Words = dst.Words[:len(src.Words)]
		} else {
			dst.Words = make([]uint64, len(src.Words))
		}
		copy(dst.Words, src.Words)
	}
}

// ReleaseState returns a state obtained from Snapshot to the pool. The
// caller asserts that no other code holds a reference to the state, its
// globals, or its heap container. Cell payloads are never recycled (they may
// be shared copy-on-write); only the containers are. Releasing is always
// optional — an unreleased state is simply garbage-collected.
//
// Releasing the same state twice panics: a double release would hand one
// container to two future owners and corrupt an unrelated search, which is
// far harder to debug than a crash at the second release site. The check is
// best effort — it cannot fire once the pool has re-issued the struct.
func ReleaseState(s *State) {
	if s == nil {
		return
	}
	s.own.acquire()
	defer s.own.release()
	if s.pooled {
		panic("vm: ReleaseState called twice on the same State")
	}
	s.pooled = true
	if h := s.Heap; h != nil {
		// An unshared slot array is exclusively ours (invariant 2 of the
		// Heap contract), so its capacity stays with the container for the
		// next ensureOwned; the cell pointers are dropped. Slots past an
		// owned array's length are always zero.
		if !h.shared && cap(h.slots) > cap(h.spare) {
			clear(h.slots)
			h.spare = h.slots[:0]
		}
		*h = Heap{spare: h.spare}
		heapPool.Put(h)
	}
	s.Heap = nil
	s.FSM = 0
	// Globals keep their backing array (that is the point of pooling) but
	// drop payload references so pooled memory does not pin old values.
	for i := range s.Globals {
		s.Globals[i] = Value{Elems: s.Globals[i].Elems[:0], Words: s.Globals[i].Words[:0]}
	}
	statePool.Put(s)
}
