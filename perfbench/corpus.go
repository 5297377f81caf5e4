package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/batch"
	"repro/internal/efsm"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// corpus is the paper's common linear case, run as `tango batch` runs it: per
// spec, compile the text, parse every trace text, then batch.Run with two
// workers at j=1 under FULL order checking. One round covers three
// sub-corpora; the loop runs rounds back to back.
type corpus struct {
	seed  int64
	small bool
	subs  []*subCorpus
}

type subCorpus struct {
	name   string
	spec   *specText
	inputs []input
}

// corpusSizes are the sub-corpus geometries: valid traces per sub-corpus
// (each gets a corrupted twin) and the range their length parameter is drawn
// from. The inflated LAPD sub-corpus is sized to take about half the wall;
// its few traces draw DI from a narrow range, since their lengths set the
// round's tail and would otherwise differ from seed to seed. TP0 stays at
// n ≤ 6: corrupted twins of longer TP0 traces have heavy-tailed search
// costs (up to 2,000 TE at n=10 against a median of 400).
type corpusSizes struct {
	lapd, lapdLo, lapdHi int // LAPD: DI
	tp0, tp0Lo, tp0Hi    int // TP0: data interactions each way
	infl, inflLo, inflHi int // LAPD + inflateDecls declarations: DI
	inflateDecls         int
}

var (
	corpusFull  = corpusSizes{16, 10, 100, 24, 1, 6, 3, 16, 19, 800}
	corpusSmall = corpusSizes{1, 5, 5, 1, 2, 2, 1, 3, 3, 20}
)

var corpusOpts = analysis.Options{Order: analysis.OrderFull}

const (
	corpusWorkers = 2
	// corpusBlockRounds is the throughput block: about a second of rounds on
	// a 2-core host.
	corpusBlockRounds = 20
)

func newCorpus(seed int64, small bool) load { return &corpus{seed: seed, small: small} }

func (c *corpus) geometry() corpusSizes {
	if c.small {
		return corpusSmall
	}
	return corpusFull
}

func (c *corpus) sizes() map[string]int {
	g := c.geometry()
	return map[string]int{"lapd_traces": 2 * g.lapd, "tp0_traces": 2 * g.tp0,
		"inflated_traces": 2 * g.infl, "inflated_decls": g.inflateDecls, "workers": corpusWorkers}
}

// strata draws n values from [lo, hi], one from each of n equal strata, in
// shuffled order: every seed covers the whole range evenly.
func strata(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi-lo+1) / float64(n)
	for i := range out {
		out[i] = lo + int(float64(i)*span+rng.Float64()*span)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (c *corpus) setup() error {
	g := c.geometry()
	rng := rand.New(rand.NewSource(c.seed))
	inflated, err := experiments.InflateLAPD(g.inflateDecls)
	if err != nil {
		return err
	}
	type gen func(spec *efsm.Spec, n int, seed int64) (*trace.Trace, error)
	lapd := func(spec *efsm.Spec, di int, seed int64) (*trace.Trace, error) {
		return workload.LAPDTrace(spec, di, seed)
	}
	tp0 := func(spec *efsm.Spec, n int, seed int64) (*trace.Trace, error) {
		return workload.TP0Trace(spec, n, n, seed, true)
	}
	for _, sc := range []struct {
		name, file, src string
		gen             gen
		n, lo, hi       int
	}{
		{"lapd", "lapd.estelle", specs.LAPD, lapd, g.lapd, g.lapdLo, g.lapdHi},
		{"tp0", "tp0.estelle", specs.TP0, tp0, g.tp0, g.tp0Lo, g.tp0Hi},
		{"lapd_inflated", "lapd_inflated.estelle", inflated, lapd, g.infl, g.inflLo, g.inflHi},
	} {
		st, err := newSpecText(sc.file, sc.src)
		if err != nil {
			return err
		}
		sub := &subCorpus{name: sc.name, spec: st}
		for _, n := range strata(rng, sc.n, sc.lo, sc.hi) {
			valid, err := sc.gen(st.spec, n, rng.Int63())
			if err != nil {
				return err
			}
			bad, err := workload.CorruptLastData(valid)
			if err != nil {
				return err
			}
			vt := trace.Format(valid)
			sub.inputs = append(sub.inputs,
				input{spec: st, text: vt, events: valid.Len(), want: analysis.Valid, opts: corpusOpts, replay: vt},
				input{spec: st, text: trace.Format(bad), events: bad.Len(), want: analysis.Invalid, opts: corpusOpts})
		}
		c.subs = append(c.subs, sub)
	}
	// Warm up with one round.
	warm := &window{}
	if err := c.round(nil, 0, warm); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d warm-up verdicts wrong", warm.failed)
	}
	return nil
}

func (c *corpus) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	w.root = tr.begin("window", 0, 0)
	allocs := startAllocs()
	start := w.start()
	for time.Since(start) < d {
		if err := c.round(tr, w.root, w); err != nil {
			return nil, err
		}
		w.tick(corpusBlockRounds)
	}
	w.wall = time.Since(start)
	w.allocBytes = allocs.since()
	tr.end(w.root)
	return w, nil
}

// round runs every sub-corpus once, as `tango batch` would.
func (c *corpus) round(tr *tracer, root int, w *window) error {
	for _, sub := range c.subs {
		t0 := time.Now()
		spec, err := compileSpec(tr, root, sub.spec)
		if err != nil {
			return err
		}
		items := make([]batch.Item, len(sub.inputs))
		base := int64(w.attempted) + 1
		for i, in := range sub.inputs {
			t, err := readTrace(tr, root, base+int64(i), in.text)
			if err != nil {
				return err
			}
			items[i] = batch.Item{Name: fmt.Sprintf("%s/%d", sub.name, i), Trace: t}
		}
		opts := batch.Options{Workers: corpusWorkers, Analysis: corpusOpts}
		var (
			mu   sync.Mutex
			ends = make([]time.Time, len(items))
		)
		if tr != nil {
			// Completion beats give each item's end; its Elapsed gives the start.
			opts.OnHeartbeat = func(hb batch.Heartbeat) {
				if hb.Completed {
					mu.Lock()
					ends[hb.Index] = time.Now()
					mu.Unlock()
				}
			}
		}
		id := tr.begin("batch.run", root, 0)
		res, err := batch.Run(context.Background(), spec, items, opts)
		tr.end(id)
		if err != nil {
			return err
		}
		w.observeBatch(res, sub.inputs)
		// The verdict a corpus user waits for is the whole sub-corpus's:
		// spec text and trace files in, batch result out.
		w.lat = append(w.lat, time.Since(t0))
		for i, ir := range res.Items {
			tr.record("analysis.search", id, base+int64(i), ends[i].Add(-ir.Elapsed), ends[i])
		}
	}
	return nil
}

// observeBatch checks a batch result's verdicts against their known answers
// and records what the batch layer did.
func (w *window) observeBatch(res *batch.Result, ins []input) {
	obs := batchObs{wall: res.Wall, workers: res.Workers}
	for i := range res.Items {
		ir := &res.Items[i]
		obs.busy += ir.Elapsed
		obs.items = append(obs.items, ir.Elapsed)
		w.events += int64(ins[i].events)
		why := ""
		if ir.Err != nil {
			why = ir.Err.Error()
		}
		if ir.Res != nil {
			w.te += ir.Res.Stats.TE
			w.searchTime += ir.Res.Stats.SearchTime
		}
		w.check(ir.Item.Name, ir.Verdict(), ins[i].want, why)
	}
	w.batches = append(w.batches, obs)
}

// batchPass runs every input once through batch.Run with the corpus
// workload's pool, one run per spec and options: the batch layer's costs on
// a workload that does not otherwise use it.
func batchPass(ins []input) (*window, error) {
	type key struct {
		spec     *specText
		order    analysis.OrderOpts
		memo     bool
		parallel int
	}
	var keys []key
	groups := map[key][]input{}
	for _, in := range ins {
		k := key{in.spec, in.opts.Order, in.opts.Memo, in.opts.Parallelism}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], in)
	}
	w := &window{}
	for _, k := range keys {
		g := groups[k]
		items := make([]batch.Item, len(g))
		for i, in := range g {
			t, err := trace.ReadString(in.text)
			if err != nil {
				return nil, err
			}
			items[i] = batch.Item{Name: fmt.Sprintf("%s/%d", in.spec.file, i), Trace: t}
		}
		res, err := batch.Run(context.Background(), k.spec.spec, items,
			batch.Options{Workers: corpusWorkers, Analysis: g[0].opts})
		if err != nil {
			return nil, err
		}
		w.observeBatch(res, g)
	}
	return w, nil
}

func (c *corpus) inputs() []input {
	var out []input
	for _, sub := range c.subs {
		out = append(out, sub.inputs...)
	}
	return out
}

func (c *corpus) close() {}
