// Compile-once/analyze-many: one compiled Spec must be shareable by any
// number of concurrent analyzers (the package's documented concurrency
// contract, and the foundation of the batch engine). These tests exist to
// fail under `go test -race` if anything reachable from a compiled Spec ever
// becomes mutable at analysis time.
package efsm_test

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/efsm"
	"repro/internal/trace"
	"repro/specs"
)

const echoTrace = `in  S req  seq=0 d=5
out S resp seq=0 d=5
in  S req  seq=1 d=7
out S resp seq=1 d=7
eof
`

// TestSpecSharedByConcurrentAnalyzers runs full analyses over one shared
// compiled Spec from many goroutines. Any write to the Spec, the checked
// program, or the type tables during analysis is a race-detector failure.
func TestSpecSharedByConcurrentAnalyzers(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadString(echoTrace)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	verdicts := make([]analysis.Verdict, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, err := analysis.New(spec, analysis.Options{Order: analysis.OrderFull, StateHashing: g%2 == 0})
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < 5; i++ {
				res, err := a.AnalyzeTrace(tr)
				if err != nil {
					errs[g] = err
					return
				}
				verdicts[g] = res.Verdict
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if verdicts[g] != analysis.Valid {
			t.Fatalf("goroutine %d: verdict %v, want valid", g, verdicts[g])
		}
	}
}

// TestSpecConcurrentTableReads hammers the read-only lookup surface (the
// Generate tables, the candidate index and trace-event resolution) from many
// goroutines.
func TestSpecConcurrentTableReads(t *testing.T) {
	spec, err := efsm.Compile("echo", specs.Echo)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadString(echoTrace)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for st := 0; st < spec.NumStates(); st++ {
					for ip := 0; ip < spec.NumIPs(); ip++ {
						_ = spec.When(st, ip)
						_ = spec.HasWhenOn(st, ip)
					}
					_ = spec.Spontaneous(st)
					_ = spec.StateName(st)
				}
				for _, ev := range tr.Events {
					re, err := spec.ResolveEvent(ev)
					if err != nil {
						t.Error(err)
						return
					}
					for st := 0; st < spec.NumStates(); st++ {
						cs := spec.Candidates(st, re.IP, re.Inter, re.Params)
						for cs.Next() != nil {
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
