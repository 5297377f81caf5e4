// Pinned search-counter snapshot. Candidate generation may get cheaper (for
// example by skipping guards an index proves false), but it must never change
// what the search does: over the golden corpus and the inflated-LAPD
// throughput trace, the verdicts and accepted solutions are pinned exactly at
// j=1 and j=2, and the summed search counters at j=1.
package repro_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// searchSnapshot renders one run set: the verdicts and a digest of the
// accepted solutions, prefixed with the summed search counters when counters
// is set. Counters are pinned only for sequential runs: at j>1 how much a
// thief explores before the winner's accept lands depends on scheduling.
func searchSnapshot(t *testing.T, spec *efsm.Spec, opts analysis.Options, traces []*trace.Trace, counters bool) string {
	t.Helper()
	sess, err := analysis.NewSession(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sum analysis.Stats
	var verdicts []string
	sol := fnv.New64a()
	for _, tr := range traces {
		res, err := sess.Analyze(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		sum.TE += s.TE
		sum.GE += s.GE
		sum.RE += s.RE
		sum.SA += s.SA
		sum.Nodes += s.Nodes
		sum.Faults += s.Faults
		verdicts = append(verdicts, res.Verdict.String())
		fmt.Fprintf(sol, "%s\n", res.SolutionString())
	}
	out := fmt.Sprintf("verdicts=%s solutions=%016x", strings.Join(verdicts, ","), sol.Sum64())
	if counters {
		out = fmt.Sprintf("TE=%d GE=%d RE=%d SA=%d Nodes=%d Faults=%d %s",
			sum.TE, sum.GE, sum.RE, sum.SA, sum.Nodes, sum.Faults, out)
	}
	return out
}

func TestSearchCounterSnapshot(t *testing.T) {
	type set struct {
		name   string
		spec   *efsm.Spec
		order  analysis.OrderOpts
		traces []*trace.Trace
	}
	var sets []set
	for _, name := range corpusSpecs {
		spec, err := efsm.Compile(name, specs.All()[name])
		if err != nil {
			t.Fatal(err)
		}
		items, err := batch.Collect([]string{corpusManifest(t, name)})
		if err != nil {
			t.Fatal(err)
		}
		var trs []*trace.Trace
		for _, it := range items {
			f, err := os.Open(it.Path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Read(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		sets = append(sets, set{name, spec, analysis.OrderFull, trs})
	}
	// The TPS experiment's lapd+800 row: 800 constant-keyed guards on st7.
	src, err := experiments.InflateLAPD(800)
	if err != nil {
		t.Fatal(err)
	}
	big, err := efsm.Compile("lapd-inflated.estelle", src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.LAPDTrace(big, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, set{"lapd+800", big, analysis.OrderNone, []*trace.Trace{tr}})

	var got []string
	for _, s := range sets {
		for _, j := range []int{1, 2} {
			opts := analysis.Options{Order: s.order, Parallelism: j}
			got = append(got, fmt.Sprintf("%s j=%d %s", s.name, j, searchSnapshot(t, s.spec, opts, s.traces, j == 1)))
		}
	}
	want := pinnedSearchSnapshot
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d rows, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// pinnedSearchSnapshot was captured with the unindexed candidate scan, which
// evaluated the guard of every when-clause transition of the input's
// (state, IP, interaction).
var pinnedSearchSnapshot = []string{
	"abp j=1 TE=15 GE=16 RE=0 SA=0 Nodes=18 Faults=0 verdicts=valid,valid,invalid,invalid solutions=7841502f9f80d118",
	"abp j=2 verdicts=valid,valid,invalid,invalid solutions=7841502f9f80d118",
	"ack j=1 TE=25 GE=27 RE=8 SA=12 Nodes=29 Faults=0 verdicts=valid,valid,invalid,invalid solutions=a30d511a038a6196",
	"ack j=2 verdicts=valid,valid,invalid,invalid solutions=a30d511a038a6196",
	"demux j=1 TE=9 GE=9 RE=0 SA=0 Nodes=10 Faults=0 verdicts=valid,invalid,invalid,invalid solutions=e7dfff73baa0331a",
	"demux j=2 verdicts=valid,invalid,invalid,invalid solutions=e7dfff73baa0331a",
	"echo j=1 TE=46 GE=47 RE=0 SA=0 Nodes=50 Faults=0 verdicts=valid,valid,valid,invalid,invalid,invalid solutions=85d0358bbec7626b",
	"echo j=2 verdicts=valid,valid,valid,invalid,invalid,invalid solutions=85d0358bbec7626b",
	"ip3 j=1 TE=16 GE=16 RE=0 SA=0 Nodes=18 Faults=0 verdicts=valid,valid,invalid,invalid solutions=97a7f78e36cc857e",
	"ip3 j=2 verdicts=valid,valid,invalid,invalid solutions=97a7f78e36cc857e",
	"ip3prime j=1 TE=9 GE=10 RE=0 SA=0 Nodes=11 Faults=0 verdicts=valid,invalid,invalid,invalid solutions=f268b53b02f33e26",
	"ip3prime j=2 verdicts=valid,invalid,invalid,invalid solutions=f268b53b02f33e26",
	"lapd j=1 TE=26 GE=26 RE=0 SA=0 Nodes=28 Faults=0 verdicts=valid,valid,invalid,invalid solutions=01187cdbc5df27e8",
	"lapd j=2 verdicts=valid,valid,invalid,invalid solutions=01187cdbc5df27e8",
	"tp0 j=1 TE=87 GE=62 RE=25 SA=35 Nodes=65 Faults=0 verdicts=valid,valid,valid,invalid,invalid solutions=f2040317c10b60c0",
	"tp0 j=2 verdicts=valid,valid,valid,invalid,invalid solutions=f2040317c10b60c0",
	"lapd+800 j=1 TE=245 GE=164 RE=81 SA=123 Nodes=165 Faults=0 verdicts=valid solutions=87149abeb880214f",
	"lapd+800 j=2 verdicts=valid solutions=87149abeb880214f",
}
