package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/specs"
)

// maxAllocsPerTE bounds the parallel engine's heap allocations per executed
// transition on the deep-backtracking TP0 trace. A search edge that the memo
// or seen table prunes allocates nothing and a surviving edge allocates one
// block (DESIGN.md §15.4); what remains per TE is the VM's own work, the
// child's rank key and state snapshots. The bound sits between that (≈2.5)
// and an engine that builds each child before probing the memo (≈5.5).
const maxAllocsPerTE = 3.5

// TestParallelEdgeAllocs is the allocation gate for the work-stealing
// engine's search edges: Fig. 4's invalid depth-13 TP0 trace, no order
// checking, memo on, two workers, ten runs.
func TestParallelEdgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items on purpose")
	}
	spec, err := efsm.Compile("tp0.estelle", specs.TP0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := experiments.Fig4InvalidTrace(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := analysis.Options{Order: analysis.OrderNone, Memo: true, Parallelism: 2}
	run := func() int64 {
		a, err := analysis.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != analysis.Invalid {
			t.Fatalf("verdict %v, want invalid", res.Verdict)
		}
		return res.Stats.TE
	}
	run() // warm the state pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var te int64
	for i := 0; i < 10; i++ {
		te += run()
	}
	runtime.ReadMemStats(&after)
	perTE := float64(after.Mallocs-before.Mallocs) / float64(te)
	t.Logf("%d allocs over %d TE: %.2f allocs/TE", after.Mallocs-before.Mallocs, te, perTE)
	if perTE > maxAllocsPerTE {
		t.Fatalf("%.2f allocs per TE, want ≤ %.1f", perTE, maxAllocsPerTE)
	}
}
