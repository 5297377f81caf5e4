package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/specs"
)

// daemon is an in-process serve.Server on loopback, with the specs uploaded
// and an HTTP client of min(2, nproc) connections.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	url     string
	conns   int
	digests map[*specText]string
	tr      atomic.Pointer[tracer] // the window's tracer, for the handler wrapper
}

func startDaemon(sts []*specText) (*daemon, error) {
	d := &daemon{conns: min(2, runtime.NumCPU()), digests: map[*specText]string{}}
	d.srv = serve.New(serve.Options{Workers: serveWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.wrap(d.srv.Handler())}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: d.conns, MaxIdleConnsPerHost: d.conns, DisableCompression: true}}
	for _, st := range sts {
		var resp struct {
			Digest string `json:"spec_digest"`
		}
		body, err := json.Marshal(map[string]string{"spec": st.src, "spec_name": st.file})
		if err == nil {
			var code int
			if code, err = d.post("/v1/specs", body, nil, &resp); err == nil && code != http.StatusOK {
				err = fmt.Errorf("HTTP %d", code)
			}
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("uploading %s: %w", st.file, err)
		}
		d.digests[st] = resp.Digest
	}
	return d, nil
}

// wrap records a serve.handler span around the server's handler when the
// current window is traced; the request carries its client span and id.
func (d *daemon) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		req, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Req"), 10, 64)
		id := tr.begin("serve.handler", parent, req)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// request is one analyze request, encoded once.
type request struct {
	input
	body []byte
}

func (d *daemon) request(in input) (request, error) {
	order := "FULL"
	if in.opts.Order == analysis.OrderNone {
		order = "NR"
	}
	body, err := json.Marshal(map[string]any{"spec_digest": d.digests[in.spec], "trace": in.text,
		"order": order, "memo": in.opts.Memo})
	return request{in, body}, err
}

// post sends one JSON request and decodes a 200 answer into out.
func (d *daemon) post(path string, body []byte, hdr map[string]string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// reqResult is one request's outcome, filled by the sender that ran it.
type reqResult struct {
	req             int64
	in              *request
	due, sent, done time.Time
	late            time.Duration // how late the generator handed it to a sender
	elapsed         time.Duration // the answer's elapsed_us
	te              int64
	status          int
	degraded        bool
	cached          bool
	verdict         string
	err             error
}

// send posts one analyze request and records its outcome in rr.
func (d *daemon) send(tr *tracer, root int, rr *reqResult) {
	var ans struct {
		Verdict    string `json:"verdict"`
		Degraded   bool   `json:"degraded"`
		SpecCached bool   `json:"spec_cached"`
		ElapsedUS  int64  `json:"elapsed_us"`
		Search     struct {
			TE int64 `json:"te"`
		} `json:"search"`
	}
	rr.sent = time.Now()
	id := tr.begin("bench.request", root, rr.req)
	rr.status, rr.err = d.post("/v1/analyze", rr.in.body, map[string]string{
		"X-Perfbench-Span": strconv.Itoa(id), "X-Perfbench-Req": strconv.FormatInt(rr.req, 10)}, &ans)
	tr.end(id)
	rr.done = time.Now()
	rr.elapsed = time.Duration(ans.ElapsedUS) * time.Microsecond
	rr.te = ans.Search.TE
	rr.degraded, rr.cached, rr.verdict = ans.Degraded, ans.SpecCached, ans.Verdict
}

// observe checks answers against their known verdicts — anything but a 200
// with the right, undegraded verdict is a failure — and records what the
// serve layer did. With tr set, each answer's analysis becomes a span inside
// its handler span (placed at the handler's end: the server reports only
// the duration).
func (w *window) observe(tr *tracer, rrs []reqResult) {
	handlers := map[int64]span{}
	if tr != nil {
		for _, sp := range tr.named(w.root, "serve.handler") {
			handlers[sp.Req] = sp
		}
	}
	o := &w.serve
	for i := range rrs {
		rr := &rrs[i]
		why := ""
		switch {
		case rr.err != nil:
			why = rr.err.Error()
		case rr.status != http.StatusOK:
			why = fmt.Sprintf("HTTP %d", rr.status)
		case rr.degraded:
			why = "degraded answer"
		case rr.verdict != rr.in.want.String():
			why = fmt.Sprintf("verdict %q, want %q", rr.verdict, rr.in.want)
		}
		w.check(fmt.Sprintf("serve request %d", rr.req), rr.in.want, rr.in.want, why)
		w.events += int64(rr.in.events)
		o.responses++
		o.shed += btoi(rr.status == http.StatusTooManyRequests)
		o.degraded += btoi(rr.degraded)
		o.cached += btoi(rr.cached)
		if rr.status != http.StatusOK {
			continue
		}
		o.overhead = append(o.overhead, rr.done.Sub(rr.sent)-rr.elapsed)
		o.analysis = append(o.analysis, rr.elapsed)
		w.te += rr.te
		w.searchTime += rr.elapsed
		if h, ok := handlers[rr.req]; ok {
			end := tr.epoch.Add(time.Duration(h.End))
			tr.record("analysis.search", h.ID, rr.req, end.Add(-rr.elapsed), end)
		}
	}
}

// close shuts the server down and waits until it has stopped.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // on timeout the process exit cleans up
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	d.srv.BeginDrain()
	_ = d.srv.AwaitIdle(ctx)
	d.client.CloseIdleConnections()
}

// servePass sends every input once, one at a time, through a fresh daemon:
// the serve layer's costs on a workload that does not otherwise use it.
func servePass(ins []input) (*window, error) {
	d, err := startDaemon(distinctSpecs(ins))
	if err != nil {
		return nil, err
	}
	defer d.close()
	w := &window{}
	rrs := make([]reqResult, len(ins))
	for i, in := range ins {
		r, err := d.request(in)
		if err != nil {
			return nil, err
		}
		rrs[i] = reqResult{req: int64(i + 1), in: &r}
		d.send(nil, 0, &rrs[i])
	}
	w.observe(nil, rrs)
	return w, nil
}

// serveLoad drives a daemon with open-loop POST /v1/analyze traffic at two
// fixed rates, light then nominal. The request mix is mostly short valid
// LAPD traces, some small TP0 traces, and a few backtrack-style requests
// whose long searches queue the rest behind them.
type serveLoad struct {
	seed  int64
	small bool
	d     *daemon
	pool  []request
	next  int // pool cursor, carried across phases and windows
}

// The fixed rates, in requests per second, and the share of a window spent
// at the light rate. On a 2-core host the mix saturates near 2,000
// requests/s; at higher rates than these its latencies were not steady from
// run to run.
const (
	serveLightRate   = 200
	serveNominalRate = 600
	serveLightShare  = 0.4
	serveWorkers     = 2
)

// Mix of the request pool, in requests: short valid LAPD, small TP0 valid
// and corrupted (FULL), backtrack-style k=3 invalid (NR, memo).
const (
	serveLAPD      = 164
	serveTP0       = 30
	serveBacktrack = 6
)

func newServe(seed int64, small bool) load { return &serveLoad{seed: seed, small: small} }

func (s *serveLoad) mix() (lapd, tp0, bt int) {
	if s.small {
		return 4, 2, 1
	}
	return serveLAPD, serveTP0, serveBacktrack
}

// rates are the light and nominal rates; the minimum size runs at a tenth,
// which a race-detector build can still keep to schedule.
func (s *serveLoad) rates() (light, nominal float64) {
	if s.small {
		return serveLightRate / 10, serveNominalRate / 10
	}
	return serveLightRate, serveNominalRate
}

func (s *serveLoad) sizes() map[string]int {
	lapd, tp0, bt := s.mix()
	light, nominal := s.rates()
	return map[string]int{"lapd_requests": lapd, "tp0_requests": tp0, "backtrack_requests": bt,
		"light_rate": int(light), "nominal_rate": int(nominal),
		"workers": serveWorkers, "connections": s.d.conns}
}

func (s *serveLoad) setup() error {
	rng := rand.New(rand.NewSource(s.seed))
	lapd, err := newSpecText("lapd.estelle", specs.LAPD)
	if err != nil {
		return err
	}
	tp0, err := newSpecText("tp0.estelle", specs.TP0)
	if err != nil {
		return err
	}
	if s.d, err = startDaemon([]*specText{lapd, tp0}); err != nil {
		return err
	}

	nLAPD, nTP0, nBT := s.mix()
	add := func(st *specText, valid, bad *trace.Trace, opts analysis.Options) error {
		in := input{spec: st, text: trace.Format(valid), events: valid.Len(), want: analysis.Valid,
			opts: opts, replay: trace.Format(valid)}
		if bad != nil {
			in.text, in.events, in.want = trace.Format(bad), bad.Len(), analysis.Invalid
		}
		r, err := s.d.request(in)
		s.pool = append(s.pool, r)
		return err
	}
	full := analysis.Options{Order: analysis.OrderFull}
	for _, di := range strata(rng, nLAPD, 5, 40) {
		valid, err := workload.LAPDTrace(lapd.spec, di, rng.Int63())
		if err == nil {
			err = add(lapd, valid, nil, full)
		}
		if err != nil {
			return err
		}
	}
	for i, n := range strata(rng, nTP0, 1, 5) {
		valid, err := workload.TP0Trace(tp0.spec, n, n, rng.Int63(), true)
		if err != nil {
			return err
		}
		bad, err := workload.CorruptLastData(valid)
		if err != nil {
			return err
		}
		if i%2 == 0 {
			bad = nil
		}
		if err := add(tp0, valid, bad, full); err != nil {
			return err
		}
	}
	for i := 0; i < nBT; i++ {
		valid, err := workload.TP0BulkTrace(tp0.spec, 3, rng.Int63(), true)
		if err != nil {
			return err
		}
		bad, err := workload.CorruptLastData(valid)
		if err != nil {
			return err
		}
		if err := add(tp0, valid, bad, analysis.Options{Order: analysis.OrderNone, Memo: true}); err != nil {
			return err
		}
	}
	// Seeded order, but with the heavy requests one per equal stretch of the
	// pool: two of them back to back would queue everything behind them, and
	// how often that happens would then depend on the seed.
	short, heavy := s.pool[:len(s.pool)-nBT], s.pool[len(s.pool)-nBT:]
	rng.Shuffle(len(short), func(i, j int) { short[i], short[j] = short[j], short[i] })
	order := make([]request, 0, len(s.pool))
	at := strata(rng, nBT, 0, len(s.pool)-1)
	sort.Ints(at)
	for _, r := range short {
		for len(at) > 0 && len(order) == at[0] {
			order, heavy, at = append(order, heavy[0]), heavy[1:], at[1:]
		}
		order = append(order, r)
	}
	s.pool = append(order, heavy...)

	// Warm up: every pool request once, one at a time.
	warm := &window{}
	rrs := make([]reqResult, len(s.pool))
	for i := range s.pool {
		rrs[i] = reqResult{req: int64(i + 1), in: &s.pool[i]}
		s.d.send(nil, 0, &rrs[i])
	}
	warm.observe(nil, rrs)
	if warm.failed > 0 {
		return fmt.Errorf("%d warm-up answers wrong", warm.failed)
	}
	return nil
}

// phase sends requests on a fixed schedule, rate per second for d, over
// the daemon's connections. A request waits in the generator's queue while
// every connection is busy; its latency counts from its due time, so that
// wait is charged to the system, while lateness — how far behind schedule
// the generator itself handed it to a sender — says whether the run is valid.
func (s *serveLoad) phase(tr *tracer, root int, rate float64, d time.Duration) []reqResult {
	rrs := make([]reqResult, max(1, int(rate*d.Seconds())))
	for i := range rrs {
		rrs[i].in = &s.pool[s.next%len(s.pool)]
		s.next++
		rrs[i].req = int64(s.next)
	}
	jobs := make(chan int, len(rrs)) // one slot per request: the schedule never blocks
	var wg sync.WaitGroup
	for c := 0; c < s.d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s.d.send(tr, root, &rrs[i])
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := range rrs {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		rrs[i].due, rrs[i].late = due, time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return rrs
}

func (s *serveLoad) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	s.d.tr.Store(tr)
	defer s.d.tr.Store(nil)
	w.root = tr.begin("window", 0, 0)
	allocs := startAllocs()
	start := w.start()
	lightD := time.Duration(float64(d) * serveLightShare)
	lightRate, nominalRate := s.rates()
	light := s.phase(tr, w.root, lightRate, lightD)
	nominal := s.phase(tr, w.root, nominalRate, d-lightD)
	w.wall = time.Since(start)
	w.allocBytes = allocs.since()
	tr.end(w.root)

	w.observe(tr, light)
	w.observe(tr, nominal)
	var late []float64
	for _, rr := range light {
		w.light = append(w.light, rr.done.Sub(rr.due))
		late = append(late, float64(rr.late))
	}
	for _, rr := range nominal {
		w.lat = append(w.lat, rr.done.Sub(rr.due))
		late = append(late, float64(rr.late))
	}
	w.lateP99 = time.Duration(quantile(late, 0.99))
	return w, nil
}

func (s *serveLoad) inputs() []input {
	out := make([]input, len(s.pool))
	for i := range s.pool {
		out[i] = s.pool[i].input
	}
	return out
}

func (s *serveLoad) close() {
	if s.d != nil {
		s.d.close()
	}
}
