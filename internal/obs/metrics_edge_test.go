package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the inclusivity contract: bounds are
// inclusive upper bounds, so an observation equal to a bound lands in that
// bound's bucket, one above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewRegistry().Histogram("h", 10, 100, 1000)
	for _, v := range []int64{10, 11, 100, 101, 1000} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []int64{1, 2, 2, 0} // le=10: {10}; le=100: {11,100}; le=1000: {101,1000}; overflow: none
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
}

// TestHistogramOverflowBucket checks observations above every bound land in
// the final implicit +Inf bucket and still count toward sum and count.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewRegistry().Histogram("h", 10)
	h.Observe(10)
	h.Observe(11)
	h.Observe(1 << 40)
	_, counts := h.Buckets()
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("counts = %v, want [1 2]", counts)
	}
	if h.Count() != 3 || h.Sum() != 10+11+(1<<40) {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestHistogramNegativeValues: negatives sort below every bound, so they land
// in the first bucket and subtract from the sum — no panic, no lost count.
func TestHistogramNegativeValues(t *testing.T) {
	h := NewRegistry().Histogram("h", 0, 10)
	h.Observe(-5)
	h.Observe(0)
	_, counts := h.Buckets()
	if counts[0] != 2 {
		t.Errorf("first bucket = %d, want 2 (counts %v)", counts[0], counts)
	}
	if h.Sum() != -5 || h.Count() != 2 {
		t.Errorf("sum=%d count=%d, want -5, 2", h.Sum(), h.Count())
	}
}

// TestHistogramUnsortedBounds: bounds are sorted at registration, so callers
// may pass them in any order.
func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewRegistry().Histogram("h", 1000, 10, 100)
	bounds, _ := h.Buckets()
	if bounds[0] != 10 || bounds[1] != 100 || bounds[2] != 1000 {
		t.Errorf("bounds = %v, want sorted", bounds)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many goroutines
// (run under -race) and checks no observation is lost or misfiled.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("h", 25, 50, 75)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	_, counts := h.Buckets()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", total, workers*perWorker)
	}
	// 0..99 uniform: 26 values ≤25, 25 in (25,50], 25 in (50,75], 24 above.
	rounds := int64(workers * perWorker / 100)
	want := []int64{26, 25, 25, 24}
	for i := range want {
		if counts[i] != want[i]*rounds {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want[i]*rounds)
		}
	}
}

// mustPanic runs f and returns the panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		} else {
			t.Fatal("expected a panic")
		}
	}()
	f()
	return
}

// TestRegistryCrossKindPanics: reusing a name as a different kind must fail
// loudly and name both call sites instead of silently aliasing.
func TestRegistryCrossKindPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests")
	msg := mustPanic(t, func() { r.Gauge("serve.requests") })
	for _, want := range []string{"serve.requests", "counter", "gauge", "metrics_edge_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not mention %q", msg, want)
		}
	}
	if strings.Count(msg, "metrics_edge_test.go") != 2 {
		t.Errorf("panic %q should name both call sites", msg)
	}
}

// TestRegistryHistogramBoundsMismatchPanics: a second registration with
// different bounds must panic with both bounds and both sites, because the
// first caller's scale would silently bucket the second caller's data.
func TestRegistryHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", 10, 100)
	msg := mustPanic(t, func() { r.Histogram("lat", 10, 100, 1000) })
	for _, want := range []string{"lat", "[10 100]", "[10 100 1000]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not mention %q", msg, want)
		}
	}
	if strings.Count(msg, "metrics_edge_test.go") != 2 {
		t.Errorf("panic %q should name both call sites", msg)
	}
}

// TestRegistryHistogramReuse: identical bounds, or omitted bounds, return the
// same histogram without complaint — the documented get-or-create contract.
func TestRegistryHistogramReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lat", 100, 10) // unsorted on purpose
	b := r.Histogram("lat", 10, 100)
	c := r.Histogram("lat")
	if a != b || a != c {
		t.Fatal("same name and bounds should return the same histogram")
	}
	a.Observe(50)
	if c.Count() != 1 {
		t.Fatalf("count = %d through an aliased handle, want 1", c.Count())
	}
}

// TestRegistryRepeatLookupAllocs: looking up a registered metric again
// resolves no call site and allocates nothing, so hot paths may fetch
// handles by name.
func TestRegistryRepeatLookupAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("c")
	r.Gauge("g")
	r.Histogram("h", 100, 10)
	for name, f := range map[string]func(){
		"counter":           func() { r.Counter("c").Inc() },
		"gauge":             func() { r.Gauge("g").Set(1) },
		"histogram":         func() { r.Histogram("h").Observe(5) },
		"histogram, bounds": func() { r.Histogram("h", 10, 100).Observe(5) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("repeat %s lookup: %.0f allocations, want 0", name, n)
		}
	}
}
