package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/estelle/parser"
	"repro/internal/estelle/sema"
	"repro/internal/trace"
)

// load is one way of loading the program. A run builds it setupRuns
// times (setup_s), then measures it for one or two windows.
type load interface {
	// setup compiles the specs, generates the inputs, starts whatever the
	// workload talks to and warms it up.
	setup() error
	// measure runs the workload's loop for d. With tr non-nil it records
	// spans around every call it makes into a module.
	measure(d time.Duration, tr *tracer) (*window, error)
	// inputs lists every distinct trace the workload analyzes, with the
	// options it is analyzed under, for the traced run's extra passes.
	inputs() []input
	// sizes records the input sizes for the provenance stamp.
	sizes() map[string]int
	close()
}

var workloads = map[string]func(seed int64, small bool) load{
	"backtrack": newBacktrack,
	"corpus":    newCorpus,
	"serve":     newServe,
}

// specText is one specification as the program receives it: source text.
type specText struct {
	file, src string
	spec      *efsm.Spec // compiled once by the harness, for the extra passes
}

// input is one trace as text with its known answer.
type input struct {
	spec   *specText
	text   string
	events int
	want   analysis.Verdict
	opts   analysis.Options
	// replay is the valid trace whose solution the vm replay walks: the
	// input itself when it is valid, else its uncorrupted twin ("" = none).
	replay string
}

// distinctSpecs lists the specs of ins, each once, in first-use order.
func distinctSpecs(ins []input) []*specText {
	var out []*specText
	seen := map[*specText]bool{}
	for _, in := range ins {
		if !seen[in.spec] {
			seen[in.spec] = true
			out = append(out, in.spec)
		}
	}
	return out
}

// window is what one measured window observed.
type window struct {
	wall   time.Duration
	lat    []time.Duration // time to verdict per trace (serve: nominal rate, from the due time)
	light  []time.Duration // serve: the light rate; nil for closed loops
	root   int             // the window's span
	events int64           // trace events whose verdicts were checked

	attempted, failed, correct int
	allocBytes                 uint64

	// Throughput per block of identical work (closed loops), see tick.
	rates       []float64
	units       int
	mark        time.Time
	markCorrect int

	// Observations the traced run turns into per-layer metrics.
	te         int64
	searchTime time.Duration
	batches    []batchObs
	serve      serveObs
	lateP99    time.Duration // serve: how late the load generator ran
}

// maxLateness bounds the load generator's p99 lateness: past it the run is
// invalid rather than slow.
const maxLateness = 20 * time.Millisecond

type batchObs struct {
	wall    time.Duration
	busy    time.Duration // Σ item Elapsed
	workers int
	items   []time.Duration
}

type serveObs struct {
	overhead  []time.Duration // client latency minus the answer's elapsed_us
	analysis  []time.Duration // the answer's elapsed_us
	shed      int             // 429 answers
	degraded  int
	cached    int // answers with spec_cached
	responses int
}

// failLimit caps the failures printed per run; all of them are counted.
const failLimit = 10

// check counts one verdict against its known answer, printing the failure.
func (w *window) check(label string, got, want analysis.Verdict, why string) bool {
	w.attempted++
	if got == want && why == "" {
		w.correct++
		return true
	}
	w.failed++
	if w.failed <= failLimit {
		if why == "" {
			why = fmt.Sprintf("verdict %s, want %s", got, want)
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", label, why)
	}
	return false
}

// start opens the window's clock and the first throughput block.
func (w *window) start() time.Time {
	w.mark = time.Now()
	return w.mark
}

// tick marks the end of one unit of work (a trace, a corpus round). Every
// per units close a block of identical work, whose correct verdicts per
// second are recorded; traces_per_s is the median block, so a stall that
// hits a few blocks does not move it.
func (w *window) tick(per int) {
	w.units++
	if w.units%per != 0 {
		return
	}
	now := time.Now()
	w.rates = append(w.rates, float64(w.correct-w.markCorrect)/now.Sub(w.mark).Seconds())
	w.mark, w.markCorrect = now, w.correct
}

// allocMeter measures bytes allocated across a window.
type allocMeter uint64

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter(m.TotalAlloc)
}

func (a allocMeter) since() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - uint64(a)
}

// compileSpec makes the three calls efsm.Compile makes — parse, check,
// index — one by one, so the traced run can time each layer.
func compileSpec(tr *tracer, parent int, st *specText) (*efsm.Spec, error) {
	id := tr.begin("estelle.parse", parent, 0)
	ast, err := parser.Parse(st.file, st.src)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", st.file, err)
	}
	id = tr.begin("estelle.sema", parent, 0)
	prog, err := sema.Check(ast)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", st.file, err)
	}
	id = tr.begin("efsm.build", parent, 0)
	spec := efsm.New(prog)
	tr.end(id)
	return spec, nil
}

// readTrace parses one trace text under a trace.read span.
func readTrace(tr *tracer, parent int, req int64, text string) (*trace.Trace, error) {
	id := tr.begin("trace.read", parent, req)
	t, err := trace.ReadString(text)
	tr.end(id)
	return t, err
}

// newSpecText compiles src once for the harness's own use (trace
// generation and the traced run's extra passes).
func newSpecText(file, src string) (*specText, error) {
	spec, err := efsm.Compile(file, src)
	if err != nil {
		return nil, err
	}
	return &specText{file: file, src: src, spec: spec}, nil
}
