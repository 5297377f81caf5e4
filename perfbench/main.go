// Command perfbench is the repository's benchmark. It drives Tango the three
// ways users get verdicts: one trace at a time (workload backtrack), over a
// corpus (corpus) and from the daemon (serve). Inputs are generated from
// -seed; every verdict is checked against its known answer, which holds by
// construction (implementation-generated traces are valid, their
// CorruptLastData twins invalid). catalog.json describes the workloads and
// every metric; BENCHMARK.json at the repository root gates backtrack and
// corpus, and serve is run on request (catalog.json says why).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload corpus --seed 7 --seconds 45 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it measures half the time untraced and half with spans recorded
// around its own calls into each module, then prints the per-layer metrics:
// unit costs, search counters, each layer's self time as a share of the
// window, and the tracing overhead. The spans go to a JSON file under -out.
// The last line of standard output is always one JSON object
// {"correct","attempted","failed","metrics"}; the lines before it are for
// people, and start with the run's provenance (host, Go, commit, seed,
// sizes).
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed catalog.json
var catalogJSON []byte

// catalog is the part of catalog.json the program reads: the gated
// workloads and every metric's unit. The file also holds each workload's
// recipe and each metric's meaning, the workloads it applies to and the
// end-to-end metrics a per-layer metric should move.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []catalogMetric `json:"end_to_end"`
	PerLayer []catalogMetric `json:"per_layer"`
}

type catalogMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
}

// setupRuns is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupRuns = 9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: backtrack, corpus or serve")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Float64("seconds", 10, "measured time of the run")
	traced := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fl.String("out", ".bench_build/spans", "directory for the traced run's span file")
	small := fl.Bool("small", false, "minimum input sizes (smoke tests)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload backtrack|corpus|serve --seed N --seconds S --trace 0|1\n")
		return 2
	}
	res, err := bench(mk, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *small, *out, cat, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func bench(mk func(seed int64, small bool) load, name string, seed int64, d time.Duration,
	traced, small bool, out string, cat *catalog, stdout io.Writer) (*result, error) {
	var (
		w      load
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		w = mk(seed, small)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	prov := newProvenance(name, seed, w.sizes())
	pb, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "# provenance %s\n", pb)
	fmt.Fprintf(stdout, "# setup_s runs %.4f\n", setups)
	setupS := median(setups)

	var (
		metrics map[string]float64
		units   []catalogMetric
		wins    []*window
	)
	if !traced {
		win, err := w.measure(d, nil)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
		metrics, units = endToEnd(win, setupS), cat.EndToEnd
		printWindow(stdout, "untraced", win)
	} else {
		base, err := w.measure(d/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		win, err := w.measure(d/2, tr)
		if err != nil {
			return nil, err
		}
		wins = append(wins, base, win)
		printWindow(stdout, "untraced half", base)
		printWindow(stdout, "traced half", win)
		ex, err := runExtras(w, win)
		if err != nil {
			return nil, err
		}
		wins = append(wins, &ex.window)
		metrics, units = perLayer(base, win, tr, ex, setupS), cat.PerLayer
		path, err := tr.write(out, prov)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "# spans %s (%d)\n", path, len(tr.spans))
	}
	// A run whose load generator fell behind its schedule measured the
	// generator, not the program: it is invalid and reports nothing.
	for _, win := range wins {
		if win.lateP99 > maxLateness {
			return nil, fmt.Errorf("invalid run: load generator p99 lateness %v exceeds %v", win.lateP99, maxLateness)
		}
	}

	res := &result{Metrics: make(map[string]metricValue, len(units))}
	for _, m := range units {
		v, ok := metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s in catalog.json was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if len(metrics) != len(units) {
		return nil, fmt.Errorf("measured %d metrics, catalog.json lists %d", len(metrics), len(units))
	}
	for _, win := range wins {
		res.Attempted += win.attempted
		res.Failed += win.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(stdout, "%-34s %14.6g ratio (%d of %d verdicts)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// endToEnd derives the user-visible metrics from an untraced window.
func endToEnd(win *window, setupS float64) map[string]float64 {
	lat := ms(win.lat)
	perS := float64(win.correct) / win.wall.Seconds()
	if len(win.rates) > 0 {
		perS = median(append([]float64(nil), win.rates...))
	}
	return map[string]float64{
		"setup_s":            setupS,
		"traces_per_s":       perS,
		"verdict_ms_p50":     blockQuantile(lat, 0.50),
		"verdict_ms_p90":     blockQuantile(lat, 0.90),
		"verdict_ms_p99":     blockQuantile(lat, 0.99),
		"alloc_kb_per_trace": ratio(float64(win.allocBytes)/1024, float64(win.attempted)),
	}
}

func printWindow(w io.Writer, label string, win *window) {
	fmt.Fprintf(w, "# %s window: wall %v, %d verdicts (%d failed), %d latency samples",
		label, win.wall.Round(time.Millisecond), win.attempted, win.failed, len(win.lat))
	if win.light != nil {
		fmt.Fprintf(w, ", %d light-rate samples with p99 %.4g ms, generator p99 lateness %v",
			len(win.light), blockQuantile(ms(win.light), 0.99), win.lateP99)
	}
	fmt.Fprintln(w)
}

// provenance is stamped on every output: where and on what the numbers were
// measured.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Sizes        map[string]int `json:"sizes"`
	CPU          string         `json:"cpu"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
}

func newProvenance(name string, seed int64, sizes map[string]int) provenance {
	p := provenance{
		Workload: name, Seed: seed, Sizes: sizes,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", SourceDigest: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			p.Commit += "+modified"
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and specifications under root, so a run
// made outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".estelle", ".mod", ".json":
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
