package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestKnownAnswersOracle confirms, for the default seed at full size, that
// every input's known answer is what the independent oracle sim.CheckTrace
// decides, so the benchmark's reference never comes from the analyzer it
// measures.
func TestKnownAnswersOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size inputs")
	}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			w := mk(1, false)
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for i, in := range w.inputs() {
				tr, err := trace.ReadString(in.text)
				if err != nil {
					t.Fatal(err)
				}
				order := sim.Order{}
				if in.opts.Order == analysis.OrderFull {
					order = sim.FullOrder
				} else if in.opts.Order != analysis.OrderNone {
					t.Fatalf("input %d: order %s has no oracle mapping", i, in.opts.Order)
				}
				res, err := sim.CheckTrace(in.spec.spec, tr, sim.OracleOptions{Order: order})
				if err != nil {
					t.Fatal(err)
				}
				want := sim.OracleInvalid
				if in.want == analysis.Valid {
					want = sim.OracleValid
				}
				if res.Verdict != want || res.Truncated {
					t.Errorf("input %d (%s, %d events): oracle %s (truncated %v), known answer %s",
						i, in.spec.file, in.events, res.Verdict, res.Truncated, in.want)
				}
			}
		})
	}
}

// TestSmoke runs every workload at minimum size, untraced and traced, and
// checks that every metric in catalog.json is printed by name with its unit
// and that no verdict failed.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, mode := range []struct {
			trace   string
			metrics []catalogMetric
		}{{"0", cat.EndToEnd}, {"1", cat.PerLayer}} {
			t.Run(name+"/trace="+mode.trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "1", "-seconds", "0.4", "-small",
					"-trace", mode.trace, "-out", t.TempDir()}, &out, &errs)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, errs.String())
				}
				if len(res.Metrics) != len(mode.metrics) {
					t.Errorf("%d metrics, catalog lists %d", len(res.Metrics), len(mode.metrics))
				}
				for _, m := range mode.metrics {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !hasLine(lines, m.Name, m.Unit) {
						t.Errorf("no printed line for %s with unit %s", m.Name, m.Unit)
					}
				}
				if !hasLine(lines, "fail_ratio", "0 ratio") {
					t.Errorf("fail_ratio 0 not printed")
				}
			})
		}
	}
}

func hasLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == name && strings.Contains(l, " "+unit) {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json lists
// exactly the workloads and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []catalogMetric              `json:"end_to_end"`
		PerLayer  []catalogMetric              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(cat.Workloads) {
		t.Fatalf("%d workloads, catalog lists %d", len(bj.Workloads), len(cat.Workloads))
	}
	for i, w := range cat.Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, pair := range []struct{ got, want []catalogMetric }{{bj.EndToEnd, cat.EndToEnd}, {bj.PerLayer, cat.PerLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%d metrics, catalog lists %d", len(pair.got), len(pair.want))
			continue
		}
		for i := range pair.want {
			if pair.got[i] != pair.want[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalog %+v", i, pair.got[i], pair.want[i])
			}
		}
	}
}
