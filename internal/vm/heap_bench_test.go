package vm

import (
	"fmt"
	"testing"

	"repro/internal/estelle/types"
)

// L2 heap micro-benchmarks over a TP0-shaped heap: a singly linked buffer of
// `record d : integer; next : ^cell end` cells, as specs/tp0.estelle builds
// with enq1/enq2. They measure the per-edge costs a backtracking search pays
// for dynamic memory: the first write after a Save (snapshot), the dispose
// in deq1/deq2 right after a restore, and the state hash the memo probes.

// tp0Cell returns TP0's list cell record type and its pointer type.
func tp0Cell() (cell, ptr *types.Type) {
	cell = &types.Type{Kind: types.Record, Name: "cell"}
	ptr = &types.Type{Kind: types.Pointer, Name: "cellptr", Elem: cell}
	cell.Fields = []types.Field{{Name: "d", Type: types.Int}, {Name: "next", Type: ptr}}
	return cell, ptr
}

// tp0BufferState returns a state whose heap holds a buffer of n linked
// cells, with head, tail and count globals, and the address of every cell
// in list order.
func tp0BufferState(tb testing.TB, n int) (*State, []int64) {
	tb.Helper()
	cellT, ptrT := tp0Cell()
	st := &State{Heap: NewHeap(), Globals: []Value{Zero(ptrT, false), Zero(ptrT, false), MakeInt(0)}}
	addrs := make([]int64, n)
	for i := range addrs {
		a := st.Heap.Alloc(cellT, false)
		c, err := st.Heap.Get(a)
		if err != nil {
			tb.Fatal(err)
		}
		c.Elems[0].I = int64(i)
		if i > 0 {
			prev, err := st.Heap.Get(addrs[i-1])
			if err != nil {
				tb.Fatal(err)
			}
			prev.Elems[1].I = a
		}
		addrs[i] = a
	}
	st.Globals[0].I, st.Globals[1].I, st.Globals[2].I = addrs[0], addrs[n-1], int64(n)
	return st, addrs
}

var heapBenchSizes = []int{8, 64}

var benchSink uint64

// BenchmarkHeapSnapshotFirstWrite is enq's `b1tail^.next := c` after a
// restore: snapshot the state, then write one cell through the copy.
func BenchmarkHeapSnapshotFirstWrite(b *testing.B) {
	for _, n := range heapBenchSizes {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			st, addrs := tp0BufferState(b, n)
			tail := addrs[n-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := st.Snapshot()
				c, err := snap.Heap.Get(tail)
				if err != nil {
					b.Fatal(err)
				}
				c.Elems[0].I = int64(i)
				ReleaseState(snap)
			}
		})
	}
}

// BenchmarkHeapDisposeAfterSnapshot is deq's `dispose(c)` of the buffer head
// after a restore.
func BenchmarkHeapDisposeAfterSnapshot(b *testing.B) {
	for _, n := range heapBenchSizes {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			st, addrs := tp0BufferState(b, n)
			head := addrs[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := st.Snapshot()
				if err := snap.Heap.Dispose(head); err != nil {
					b.Fatal(err)
				}
				ReleaseState(snap)
			}
		})
	}
}

// BenchmarkStateHash64 is the memo/seen-set probe's state digest.
func BenchmarkStateHash64(b *testing.B) {
	for _, n := range heapBenchSizes {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			st, _ := tp0BufferState(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += st.Hash64()
			}
		})
	}
}
