package analysis

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/specs"
)

// The differential over the full golden corpus (all specs, j∈{2,4,8}, every
// pruning configuration) lives in the repo-root conformance suite
// (TestParallelSearchDifferential); these tests pin engine-internal
// properties that the corpus cannot see from the outside.

// TestParallelExploresExactlySequentialTree: on a conclusively invalid trace
// with no pruning enabled, both engines must refute by exhausting the same
// tree — not just the same verdict, but identical TE/GE/Nodes/MaxDepth.
func TestParallelExploresExactlySequentialTree(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 2)

	seqA, err := New(spec, Options{Order: OrderNone})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := seqA.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != Invalid {
		t.Fatalf("sequential verdict = %v, want invalid", seq.Verdict)
	}
	for _, j := range []int{2, 8} {
		parA, err := New(spec, Options{Order: OrderNone, Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		par, err := parA.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if par.Verdict != Invalid {
			t.Fatalf("j=%d verdict = %v, want invalid", j, par.Verdict)
		}
		ss, ps := seqA.Stats(), parA.Stats()
		if ps.TE != ss.TE || ps.GE != ss.GE || ps.Nodes != ss.Nodes || ps.MaxDepth != ss.MaxDepth {
			t.Errorf("j=%d explored a different tree: TE=%d/%d GE=%d/%d nodes=%d/%d maxdepth=%d/%d",
				j, ps.TE, ss.TE, ps.GE, ss.GE, ps.Nodes, ss.Nodes, ps.MaxDepth, ss.MaxDepth)
		}
		if diagJSON(t, par) != diagJSON(t, seq) {
			t.Errorf("j=%d diagnosis differs:\n%s\n---\n%s", j, diagJSON(t, par), diagJSON(t, seq))
		}
	}
}

// TestParallelBudgetExhausted: the shared transition budget must stop the
// fleet with the sequential engine's Exhausted verdict shape.
func TestParallelBudgetExhausted(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)
	a, err := New(spec, Options{Order: OrderNone, Parallelism: 4, MaxTransitions: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Exhausted {
		t.Fatalf("verdict = %v, want exhausted", res.Verdict)
	}
	if res.Stop == nil || res.Stop.Reason != StopBudget {
		t.Fatalf("stop info = %+v, want budget reason", res.Stop)
	}
	if res.Diagnosis == nil {
		t.Fatal("exhausted verdict carries no diagnosis")
	}
}

// TestParallelContextCancel: cancellation mid-search yields a Partial verdict
// with the interruption reason, not an error or a hang.
func TestParallelContextCancel(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 3)
	a, err := New(spec, Options{Order: OrderNone, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.AnalyzeTraceContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Partial {
		t.Fatalf("verdict = %v, want partial", res.Verdict)
	}
	if res.Stop == nil || res.Stop.Reason != StopCancelled {
		t.Fatalf("stop info = %+v, want cancelled reason", res.Stop)
	}
}

// TestParallelCheckpointResume: a checkpoint captured by a parallel run must
// replay and resume (also in parallel) to the uninterrupted verdict, with an
// identical solution path.
func TestParallelCheckpointResume(t *testing.T) {
	spec := compile(t, "ack", specs.Ack)
	opts := Options{Order: OrderFull, CheckpointEvery: time.Nanosecond, Parallelism: 4}
	a, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrace(t, longAckTrace(40))
	var captured atomic.Int64
	a.opts.OnCheckpoint = func(ck *CheckpointState) { captured.Add(1) }
	full, err := a.AnalyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if full.Verdict != Valid {
		t.Fatalf("verdict = %v, want valid", full.Verdict)
	}
	ck := a.LastCheckpoint()
	if ck == nil || captured.Load() == 0 {
		t.Fatalf("no checkpoint captured (callback fired %d times)", captured.Load())
	}
	if len(ck.Steps) == 0 || len(ck.VMState) == 0 || ck.Verified <= 0 {
		t.Fatalf("checkpoint looks empty: steps=%d vm=%d verified=%d",
			len(ck.Steps), len(ck.VMState), ck.Verified)
	}

	b, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, used, err := b.ResumeTrace(context.Background(), tr, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("resume fell back to a fresh search")
	}
	if resumed.Verdict != Valid {
		t.Fatalf("resumed verdict = %v, want valid", resumed.Verdict)
	}
	if len(resumed.Solution) != len(full.Solution) {
		t.Fatalf("resumed solution has %d steps, uninterrupted %d",
			len(resumed.Solution), len(full.Solution))
	}
	for i := range full.Solution {
		if full.Solution[i].String() != resumed.Solution[i].String() {
			t.Fatalf("solution step %d differs: %s vs %s",
				i, resumed.Solution[i], full.Solution[i])
		}
	}
}

// TestParallelInitialStateSearch: the per-retry engine rebuild must keep the
// initial-state search semantics (retry every state, first non-invalid wins).
func TestParallelInitialStateSearch(t *testing.T) {
	spec := compile(t, "tp0", specs.TP0)
	tr := deepInvalidTP0(t, spec, 1)
	for _, j := range []int{1, 4} {
		a, err := New(spec, Options{Order: OrderNone, Parallelism: j, InitialStateSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if j == 1 {
			continue
		}
		b, err := New(spec, Options{Order: OrderNone, InitialStateSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := b.AnalyzeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != seq.Verdict || res.InitialState != seq.InitialState {
			t.Errorf("j=%d: verdict/init %v/%d, sequential %v/%d",
				j, res.Verdict, res.InitialState, seq.Verdict, seq.InitialState)
		}
	}
}

// TestWSDequeTransfers hammers one owner (push/pop) against three thieves:
// every pushed node must be consumed exactly once. Run with -race.
func TestWSDequeTransfers(t *testing.T) {
	const total = 20000
	d := newWSDeque()
	nodes := make([]node, total)
	var got atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n := d.steal(); n != nil {
					got.Add(1)
					continue
				}
				select {
				case <-stop:
					// Drain what the owner left behind.
					for n := d.steal(); n != nil; n = d.steal() {
						got.Add(1)
					}
					return
				default:
				}
			}
		}()
	}
	for i := range nodes {
		d.push(&nodes[i])
		if i%3 == 0 {
			if n := d.pop(); n != nil {
				got.Add(1)
			}
		}
	}
	for n := d.pop(); n != nil; n = d.pop() {
		got.Add(1)
	}
	close(stop)
	wg.Wait()
	if got.Load() != total {
		t.Fatalf("transferred %d nodes, pushed %d", got.Load(), total)
	}
}

// TestChildRankCompare pins the in-place rank comparison that the memo,
// seen table and abandonment checks use to the materialized key order.
func TestChildRankCompare(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	randKey := func(depth int) string {
		k := ""
		for d := 0; d < depth; d++ {
			k = childRankKey(k, r.Intn(1<<25))
		}
		return k
	}
	// Bytes that matter to the order: the fault and segment markers, and the
	// extremes of an index byte.
	alphabet := []byte{0x00, 0x01, 0x02, 0x03, 0x7f, 0xfe, 0xff}
	randString := func() string {
		b := make([]byte, r.Intn(24))
		for k := range b {
			b[k] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	check := func(s, parent string, i int) {
		t.Helper()
		key := childRankKey(parent, i)
		if got, want := childRankCompare(s, parent, i), strings.Compare(s, key); got != want {
			t.Fatalf("childRankCompare(%q, %q, %d) = %d, want %d", s, parent, i, got, want)
		}
	}
	parents := []string{"", randKey(1), randKey(3), randKey(6)}
	indexes := []int{0, 1, 2, 255, 256, 257, 65535, 65536, 1<<24 - 1, 1 << 24, 1<<24 + 1}
	for _, parent := range parents {
		for _, i := range indexes {
			key := childRankKey(parent, i)
			if e := (&edgeRank{parent: parent, i: i}); e.key() != key {
				t.Fatalf("edgeRank.key() = %q, want %q", e.key(), key)
			}
			for k := 0; k <= len(parent); k++ {
				check(parent[:k], parent, i) // proper prefixes, and parent itself
			}
			for k := len(parent); k <= len(key); k++ {
				check(key[:k], parent, i) // partial segments, and the key itself
			}
			check(key+rankExecFault, parent, i)
			check(key+rankGenFault, parent, i)
			check(childRankKey(key, 0), parent, i)
			check(childRankKey(childRankKey(key, 300), 7), parent, i)
			for _, j := range indexes {
				check(childRankKey(parent, j), parent, i) // siblings
				check(childRankKey(childRankKey(parent, j), 1), parent, i)
			}
			for n := 0; n < 50; n++ {
				b := []byte(key)
				b[r.Intn(len(b))] = alphabet[r.Intn(len(alphabet))]
				check(string(b), parent, i)
				check(string(b[:r.Intn(len(b)+1)])+randString(), parent, i)
				check(randString(), parent, i)
			}
		}
	}
	for n := 0; n < 2000; n++ {
		check(randString(), randString(), r.Intn(1<<26))
		check(randKey(r.Intn(4)), randKey(r.Intn(4)), r.Intn(1<<26))
	}
}
