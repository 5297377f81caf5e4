package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a small, zero-dependency metrics registry: named atomic
// counters, gauges and histograms that the analyzer updates while searching
// and that anything — the CLI's run report, an expvar HTTP endpoint, a test —
// can read while the search runs. Metric handles are get-or-create and safe
// for concurrent use; reads never block writers.
//
// Names are unique across kinds: asking for an existing name as a different
// kind, or for an existing histogram with different bucket bounds, panics
// with both call sites named. Silent aliasing would hand one caller another
// caller's metric and corrupt both series.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]metricMeta
}

// metricMeta remembers how (and where) a name was first registered so later
// conflicting registrations can report both sides.
type metricMeta struct {
	kind   string
	bounds []int64 // histograms only, sorted
	site   string  // file:line of first registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]metricMeta),
	}
}

// callerSite names the registration call site two frames up (the caller of
// Counter/Gauge/Histogram). It is resolved only when a name is first
// registered or misused, never on a repeat lookup.
func callerSite() string {
	if _, file, line, ok := runtime.Caller(2); ok {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return "unknown"
}

// register records a new name's kind under r.mu, or panics on cross-kind
// reuse of a known one.
func (r *Registry) register(name, kind, site string, bounds []int64) {
	m, ok := r.meta[name]
	if !ok {
		r.meta[name] = metricMeta{kind: kind, bounds: bounds, site: site}
		return
	}
	panic(fmt.Sprintf("obs: metric %q requested as %s at %s but registered as %s at %s",
		name, kind, site, m.kind, m.site))
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max raises the gauge to n if n is larger (best-effort under concurrency).
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Histogram counts observations into fixed upper-bound buckets (plus an
// overflow bucket) and tracks sum and count, enough to read distribution
// shape and mean without per-observation allocation.
type Histogram struct {
	bounds []int64 // sorted inclusive upper bounds
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns (bounds, counts); the final count is the overflow bucket
// (observations above every bound).
func (h *Histogram) Buckets() ([]int64, []int64) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]int64(nil), h.bounds...), counts
}

// Counter returns the named counter, creating it on first use. Panics if the
// name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, "counter", callerSite(), nil)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Panics if the
// name is already registered as a different kind.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, "gauge", callerSite(), nil)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds are sorted; later calls may omit them).
// Panics if the name is already registered as a different kind, or as a
// histogram with different bounds — both call sites are named, because
// silently returning the first registration would bucket one caller's
// observations on another caller's scale.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if ok && (len(bounds) == 0 || equalBounds(bounds, h.bounds)) {
		return h
	}
	sorted := append([]int64(nil), bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if !ok {
		r.register(name, "histogram", callerSite(), sorted)
		h = &Histogram{bounds: sorted, counts: make([]atomic.Int64, len(sorted)+1)}
		r.hists[name] = h
		return h
	}
	if !equalBounds(sorted, h.bounds) {
		m := r.meta[name]
		panic(fmt.Sprintf("obs: histogram %q requested with bounds %v at %s but registered with %v at %s",
			name, sorted, callerSite(), m.bounds, m.site))
	}
	return h
}

func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot returns a point-in-time copy of every metric: counters and gauges
// as int64, histograms as {"sum","count","buckets","counts"} maps. The result
// marshals cleanly to JSON.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		bounds, counts := h.Buckets()
		out[name] = map[string]any{
			"sum": h.Sum(), "count": h.Count(), "buckets": bounds, "counts": counts,
		}
	}
	return out
}

// WriteJSON marshals Snapshot (indented, trailing newline) to w — the body
// of the serving daemon's /metrics endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Scalars returns only the counter and gauge values, sorted-key iterable —
// the flat shape run reports embed.
func (r *Registry) Scalars() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// published guards expvar names: expvar.Publish panics on duplicates, and
// registries come and go (one per analysis) while expvar names are global.
var (
	publishedMu sync.Mutex
	published   = map[string]*expvar.Func{}
	current     = map[string]*Registry{}
)

// Publish exposes the registry's Snapshot under the given expvar name
// (readable at /debug/vars when the process serves HTTP). Publishing the same
// name again rebinds it to the new registry instead of panicking, so each
// analysis run can take over the name.
func (r *Registry) Publish(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty expvar name")
	}
	publishedMu.Lock()
	defer publishedMu.Unlock()
	current[name] = r
	if _, ok := published[name]; !ok {
		f := expvar.Func(func() any {
			publishedMu.Lock()
			reg := current[name]
			publishedMu.Unlock()
			if reg == nil {
				return nil
			}
			return reg.Snapshot()
		})
		published[name] = &f
		expvar.Publish(name, f)
	}
	return nil
}
