package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/estelle/sema"
	"repro/internal/trace"
	"repro/internal/vm"
)

// extras is what the traced run measures after its windows, outside any
// timed window: per-call unit costs of each module on the workload's own
// inputs, the search counters of one pass over the distinct inputs (and of a
// j=1 recount), and the vm replay of valid solutions. Calls the workload
// makes inside the program (batch workers, the server) are measured here by
// making the same public call directly.
type extras struct {
	window // known-answer checks of the passes below

	parseMS, semaMS, buildMS float64 // Σ over distinct specs of the median call
	transitions              int
	readNsPerEvent           float64
	newUS                    float64

	stats analysis.Stats // Σ over one pass (MaxDepth: max)
	teJ1  int64
	// The window's serve and batch observations, or those of a pass of the
	// inputs through an in-process daemon and through batch.Run.
	serve   serveObs
	batches []batchObs

	vm vmCosts
}

const (
	compileReps = 5  // compiles per distinct spec
	unitReps    = 4  // passes over the inputs for read and NewSession costs
	vmReps      = 20 // replays per valid solution and op class
)

func runExtras(w load, win *window) (*extras, error) {
	ex := &extras{}
	ins := w.inputs()

	// The serve and batch layers: a workload whose window did not use one
	// runs its inputs through it once.
	ex.serve, ex.batches = win.serve, win.batches
	if ex.serve.responses == 0 {
		sp, err := servePass(ins)
		if err != nil {
			return nil, err
		}
		ex.serve = sp.serve
		ex.attempted, ex.failed = ex.attempted+sp.attempted, ex.failed+sp.failed
	}
	if len(ex.batches) == 0 {
		bp, err := batchPass(ins)
		if err != nil {
			return nil, err
		}
		ex.batches = bp.batches
		ex.attempted, ex.failed = ex.attempted+bp.attempted, ex.failed+bp.failed
	}

	// Compile costs per distinct spec.
	for _, st := range distinctSpecs(ins) {
		xt := newTracer()
		root := xt.begin("bench.compile", 0, 0)
		for r := 0; r < compileReps; r++ {
			if _, err := compileSpec(xt, root, st); err != nil {
				return nil, err
			}
		}
		xt.end(root)
		ex.parseMS += medianMS(xt.named(root, "estelle.parse"))
		ex.semaMS += medianMS(xt.named(root, "estelle.sema"))
		ex.buildMS += medianMS(xt.named(root, "efsm.build"))
		ex.transitions += st.spec.TransitionCount()
	}

	// Trace ingest and session construction.
	var (
		readTime time.Duration
		events   int
		news     []float64
	)
	for r := 0; r < unitReps; r++ {
		for _, in := range ins {
			t0 := time.Now()
			if _, err := trace.ReadString(in.text); err != nil {
				return nil, err
			}
			readTime += time.Since(t0)
			events += in.events
			t0 = time.Now()
			if _, err := analysis.NewSession(in.spec.spec, in.opts); err != nil {
				return nil, err
			}
			news = append(news, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	ex.readNsPerEvent = float64(readTime.Nanoseconds()) / float64(events)
	ex.newUS = median(news)

	// One pass over the distinct inputs under the workload's options, a j=1
	// recount of the same traces, and the vm replay of valid solutions.
	for i, in := range ins {
		t, res, err := analyze(in.spec.spec, in.text, in.opts)
		if err != nil {
			return nil, err
		}
		ex.check(fmt.Sprintf("pass input %d", i), res.Verdict, in.want, "")
		addStats(&ex.stats, res.Stats)
		teJ1 := res.Stats.TE
		if in.opts.Parallelism > 1 {
			j1 := in.opts
			j1.Parallelism = 1
			_, r1, err := analyze(in.spec.spec, in.text, j1)
			if err != nil {
				return nil, err
			}
			ex.check(fmt.Sprintf("j=1 input %d", i), r1.Verdict, in.want, "")
			teJ1 = r1.Stats.TE
		}
		ex.teJ1 += teJ1
		if in.replay == "" {
			continue
		}
		if in.replay != in.text {
			// An invalid input: replay its uncorrupted twin.
			if t, res, err = analyze(in.spec.spec, in.replay, in.opts); err != nil {
				return nil, err
			}
			ex.check(fmt.Sprintf("twin of input %d", i), res.Verdict, analysis.Valid, "")
		}
		if res.Verdict != analysis.Valid {
			continue
		}
		if err := ex.vm.replay(in.spec.spec, t, res.Solution); err != nil {
			return nil, fmt.Errorf("vm replay of input %d: %w", i, err)
		}
	}
	return ex, nil
}

func analyze(spec *efsm.Spec, text string, opts analysis.Options) (*trace.Trace, *analysis.Result, error) {
	t, err := trace.ReadString(text)
	if err != nil {
		return nil, nil, err
	}
	sess, err := analysis.NewSession(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := sess.Analyze(context.Background(), t)
	return t, res, err
}

func addStats(sum *analysis.Stats, s analysis.Stats) {
	sum.TE += s.TE
	sum.GE += s.GE
	sum.RE += s.RE
	sum.SA += s.SA
	sum.Nodes += s.Nodes
	sum.PrunedByMemo += s.PrunedByMemo
	sum.MaxDepth = max(sum.MaxDepth, s.MaxDepth)
}

func medianMS(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.End-s.Start) / 1e6
	}
	return median(xs)
}

// vmCosts accumulates the vm replay. A valid trace's solution is replayed
// step by step from RunInit, keeping the state before each step; each op
// class is then timed in its own loop over those states, so the timer's own
// cost is paid once per loop, not per call.
type vmCosts struct {
	guards, inputSteps int64
	guardTime          time.Duration
	execs              int64
	execTime           time.Duration
	execAllocs         float64 // Σ over solutions of allocations per Execute
	solutions          int
	snaps              int64
	snapTime           time.Duration
	hashes             int64
	hashTime           time.Duration
}

type replayStep struct {
	before *vm.State
	ti     *sema.TransInfo
	params []vm.Value
	guards []*sema.TransInfo // spec.When candidates for the consumed input
}

func (c *vmCosts) replay(spec *efsm.Spec, t *trace.Trace, sol []analysis.Step) error {
	ex := vm.New(spec.Prog)
	st, _, err := ex.RunInit()
	if err != nil {
		return err
	}
	steps := make([]replayStep, 0, len(sol))
	for _, s := range sol {
		rs := replayStep{before: st.Snapshot(), ti: s.Trans}
		if s.EventSeq >= 0 {
			re, err := spec.ResolveEvent(t.Events[s.EventSeq])
			if err != nil {
				return err
			}
			rs.params = re.Params
			for _, ti := range spec.When(st.FSM, re.IP) {
				if ti.WhenInter == re.Inter {
					rs.guards = append(rs.guards, ti)
				}
			}
			c.inputSteps++
		}
		if _, err := ex.Execute(st, s.Trans, rs.params); err != nil {
			return err
		}
		steps = append(steps, rs)
	}
	if len(steps) == 0 {
		return nil
	}

	t0 := time.Now()
	for r := 0; r < vmReps; r++ {
		for _, rs := range steps {
			for _, ti := range rs.guards {
				// A faulting guard counts as false, as in the analyzer.
				_, _ = ex.EvalProvided(rs.before, ti, rs.params)
			}
		}
	}
	c.guardTime += time.Since(t0)
	for _, rs := range steps {
		c.guards += int64(len(rs.guards)) * vmReps
	}

	// Execute runs in place, so each call gets a fresh snapshot; the
	// snapshot loop below is subtracted from it. Every step already ran
	// once without error from the same state, above.
	execute := func(rs replayStep) { _, _ = ex.Execute(rs.before.Snapshot(), rs.ti, rs.params) }
	t0 = time.Now()
	for r := 0; r < vmReps; r++ {
		for _, rs := range steps {
			execute(rs)
		}
	}
	execSnap := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < vmReps; r++ {
		for _, rs := range steps {
			rs.before.Snapshot()
		}
	}
	snap := time.Since(t0)
	c.execTime += execSnap - snap
	c.snapTime += snap
	n := int64(len(steps)) * vmReps
	c.execs += n
	c.snaps += n

	i := 0
	both := testing.AllocsPerRun(len(steps)*vmReps, func() {
		execute(steps[i%len(steps)])
		i++
	})
	i = 0
	alone := testing.AllocsPerRun(len(steps)*vmReps, func() {
		steps[i%len(steps)].before.Snapshot()
		i++
	})
	c.execAllocs += both - alone
	c.solutions++

	t0 = time.Now()
	for r := 0; r < vmReps; r++ {
		for _, rs := range steps {
			rs.before.Hash64()
		}
	}
	c.hashTime += time.Since(t0)
	c.hashes += n
	return nil
}

// perLayer assembles the traced run's metrics: the unit costs and counters
// from the extra passes, in-situ figures from the traced window, each
// layer's self-time share of that window, and the tracing overhead measured
// against the untraced half.
func perLayer(base, win *window, tr *tracer, ex *extras, setupS float64) map[string]float64 {
	m := map[string]float64{
		"estelle.parse_ms":          ex.parseMS,
		"estelle.sema_ms":           ex.semaMS,
		"efsm.build_ms":             ex.buildMS,
		"efsm.transitions":          float64(ex.transitions),
		"trace.read_ns_per_event":   ex.readNsPerEvent,
		"trace.events":              float64(win.events),
		"analysis.new_us":           ex.newUS,
		"analysis.search_ms":        medianMS(tr.named(win.root, "analysis.search")),
		"analysis.te_per_s":         ratio(float64(win.te), win.searchTime.Seconds()),
		"analysis.te":               float64(ex.stats.TE),
		"analysis.ge":               float64(ex.stats.GE),
		"analysis.re":               float64(ex.stats.RE),
		"analysis.sa":               float64(ex.stats.SA),
		"analysis.nodes":            float64(ex.stats.Nodes),
		"analysis.max_depth":        float64(ex.stats.MaxDepth),
		"analysis.memo_hit_ratio":   ratio(float64(ex.stats.PrunedByMemo), float64(ex.stats.Nodes)),
		"analysis.par_excess_ratio": ratio(float64(ex.stats.TE), float64(ex.teJ1)),
		"vm.guard_ns":               ratio(float64(ex.vm.guardTime.Nanoseconds()), float64(ex.vm.guards)),
		"vm.guards_per_event":       ratio(float64(ex.vm.guards)/vmReps, float64(ex.vm.inputSteps)),
		"vm.execute_ns":             ratio(float64(ex.vm.execTime.Nanoseconds()), float64(ex.vm.execs)),
		"vm.execute_allocs":         ratio(ex.vm.execAllocs, float64(ex.vm.solutions)),
		"vm.snapshot_ns":            ratio(float64(ex.vm.snapTime.Nanoseconds()), float64(ex.vm.snaps)),
		"vm.hash_ns":                ratio(float64(ex.vm.hashTime.Nanoseconds()), float64(ex.vm.hashes)),
		"tracing.spans":             float64(len(tr.spans)),
	}

	var wall, busy, capacity time.Duration
	var items []float64
	for _, b := range ex.batches {
		wall += b.wall
		busy += b.busy
		capacity += b.wall * time.Duration(b.workers)
		items = append(items, ms(b.items)...)
	}
	m["batch.wall_ms"] = ratio(float64(wall.Nanoseconds())/1e6, float64(len(ex.batches)))
	m["batch.busy_ratio"] = ratio(float64(busy), float64(capacity))
	m["batch.item_ms_p90"] = quantile(items, 0.9)

	o := ex.serve
	m["serve.overhead_us_p50"] = quantile(ms(o.overhead), 0.5) * 1e3
	m["serve.analysis_us_p99"] = quantile(ms(o.analysis), 0.99) * 1e3
	m["serve.shed"] = float64(o.shed)
	m["serve.degraded"] = float64(o.degraded)
	m["serve.spec_cached_ratio"] = ratio(float64(o.cached), float64(o.responses))

	self := tr.selfTimes(win.root)
	for _, layer := range []string{"estelle", "efsm", "trace", "analysis", "batch", "serve", "bench", "window"} {
		m["share."+layer] = self[layer].Seconds() / win.wall.Seconds()
	}

	// Tracing overhead: how much worse the traced half's end-to-end figures
	// are than the untraced half's, relative to the untraced ones.
	eb, et := endToEnd(base, setupS), endToEnd(win, setupS)
	m["tracing.overhead_traces_per_s"] = ratio(eb["traces_per_s"]-et["traces_per_s"], eb["traces_per_s"])
	for _, name := range []string{"verdict_ms_p50", "verdict_ms_p90"} {
		m["tracing.overhead_"+name] = ratio(et[name]-eb[name], eb[name])
	}
	return m
}
