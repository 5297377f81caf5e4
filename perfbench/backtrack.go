package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// backtrack is the paper's worst case (Figure 4): invalid TP0 bulk traces
// analyzed without order checking, memo on, two search workers. A closed
// loop with one caller: read the trace text, open a session, analyze.
type backtrack struct {
	seed  int64
	small bool
	tp0   *specText
	opts  analysis.Options
	pool  []input
}

// The pool mixes k=3 and k=4 traces in fixed proportions, so p50 falls among
// the k=3 traces and p90 among the k=4 ones whatever the seed.
const (
	backtrackK3 = 48
	backtrackK4 = 16
)

func newBacktrack(seed int64, small bool) load {
	return &backtrack{seed: seed, small: small,
		opts: analysis.Options{Order: analysis.OrderNone, Memo: true, Parallelism: 2}}
}

func (b *backtrack) sizes() map[string]int {
	k3, k4 := b.counts()
	return map[string]int{"k3_traces": k3, "k4_traces": k4, "parallelism": b.opts.Parallelism}
}

func (b *backtrack) counts() (k3, k4 int) {
	if b.small {
		return 2, 1
	}
	return backtrackK3, backtrackK4
}

func (b *backtrack) setup() error {
	var err error
	b.tp0 = &specText{file: "tp0.estelle", src: specs.TP0}
	if b.tp0.spec, err = compileSpec(nil, 0, b.tp0); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	k3, k4 := b.counts()
	ks := make([]int, 0, k3+k4)
	for i := 0; i < k3+k4; i++ {
		ks = append(ks, 3+btoi(i >= k3))
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	for _, k := range ks {
		valid, err := workload.TP0BulkTrace(b.tp0.spec, k, rng.Int63(), true)
		if err != nil {
			return err
		}
		bad, err := workload.CorruptLastData(valid)
		if err != nil {
			return err
		}
		b.pool = append(b.pool, input{spec: b.tp0, text: trace.Format(bad), events: bad.Len(),
			want: analysis.Invalid, opts: b.opts, replay: trace.Format(valid)})
	}
	// Warm up on the first k=3 traces only, so set-up time does not depend on
	// how many k=4 traces the seed put at the head of the pool.
	warm := &window{}
	for i, k := range ks {
		if k == 3 && warm.attempted < 8 {
			if err := b.one(nil, 0, warm, int64(i), b.pool[i]); err != nil {
				return err
			}
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d warm-up verdicts wrong", warm.failed)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (b *backtrack) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	w.root = tr.begin("window", 0, 0)
	allocs := startAllocs()
	start := w.start()
	for i := 0; time.Since(start) < d; i++ {
		if err := b.one(tr, w.root, w, int64(i+1), b.pool[i%len(b.pool)]); err != nil {
			return nil, err
		}
		w.tick(len(b.pool)) // a block is one pass over the pool
	}
	w.wall = time.Since(start)
	w.allocBytes = allocs.since()
	tr.end(w.root)
	return w, nil
}

// one analyzes one trace from its text and checks the verdict.
func (b *backtrack) one(tr *tracer, root int, w *window, req int64, in input) error {
	t0 := time.Now()
	t, err := readTrace(tr, root, req, in.text)
	if err != nil {
		return err
	}
	id := tr.begin("analysis.new", root, req)
	sess, err := analysis.NewSession(b.tp0.spec, in.opts)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("analysis.search", root, req)
	res, err := sess.Analyze(context.Background(), t)
	tr.end(id)
	if err != nil {
		return err
	}
	w.lat = append(w.lat, time.Since(t0))
	w.events += int64(t.Len())
	w.te += res.Stats.TE
	w.searchTime += res.Stats.SearchTime
	w.check(fmt.Sprintf("backtrack trace %d", req), res.Verdict, in.want, "")
	return nil
}

func (b *backtrack) inputs() []input { return b.pool }

func (b *backtrack) close() {}
