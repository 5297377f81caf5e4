package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a module (or, for work
// done inside a module the benchmark cannot wrap, a span derived from the
// module's own report: batch item Elapsed, serve answer elapsed_us). Its
// layer is the name's prefix up to the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"` // trace or request id; 0 for window and set-up spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) layer() string { return strings.SplitN(s.Name, ".", 2)[0] }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured loops run the same
// code either way.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span id returned by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a span whose interval is already known.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: t.ns(start), End: t.ns(end)})
}

// named returns the spans called name below root (at any depth).
func (t *tracer) named(root int, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && t.below(s, root) {
			out = append(out, s)
		}
	}
	return out
}

// below reports whether s descends from root; t.mu must be held. Parents are
// always opened before their children, so ids decrease along the chain.
func (t *tracer) below(s span, root int) bool {
	for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
		if p == root {
			return true
		}
	}
	return false
}

// selfTimes sums, per layer, the self time of root and every span below it:
// a span's duration minus the part of its interval its children cover.
// Children that run concurrently (batch workers, parallel requests) are
// merged before subtracting, so a layer's self time can exceed the root's
// wall when it runs on several goroutines at once.
func (t *tracer) selfTimes(root int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	var walk func(s span)
	walk = func(s span) {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
			walk(k)
		}
		out[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	walk(t.spans[root-1])
	return out
}

// write saves every span, with the run's provenance, as one JSON file.
func (t *tracer) write(dir string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", prov.Workload, prov.Seed))
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
