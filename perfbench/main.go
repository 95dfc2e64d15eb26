// Command perfbench is the repository's benchmark. It runs one workload
// (paper, nmm or serve) as a closed loop with a single caller for a fixed
// time, verifies every output, and prints the workload's metrics as one
// JSON object on the last line of standard output.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload once untraced and once traced, where the traced pass
// re-composes the optimizer from its public calls with a span around
// each, and prints the per-layer metrics listed in layers.json.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --report
//
// Every run appends its metrics to .bench_build/perfbench/history.jsonl;
// --report prints the median and quartiles of each metric over them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Failure kinds. An HTTP error status is counted as "http_status_<code>".
const (
	kindParse     = "parse_error"
	kindOptimizer = "optimizer_error"
	kindInterp    = "interp_mismatch"
	kindOutput    = "output_mismatch"
	kindTransport = "transport_error"
	kindInput     = "input_error"
	kindPlan      = "plan_mismatch"
)

// stageError tags an error with the failure kind it counts as.
type stageError struct {
	kind string
	err  error
}

func (e *stageError) Error() string { return e.kind + ": " + e.err.Error() }
func (e *stageError) Unwrap() error { return e.err }

func kindOf(err error) string {
	var se *stageError
	if errors.As(err, &se) {
		return se.kind
	}
	return kindOptimizer
}

// failures counts attempted operations and failed ones by kind. Nothing
// is retried. known counts oracle verdicts that the known fast_inv_sqrt
// false positive explains (see serve.go); they are reported, not failed.
type failures struct {
	attempted int64
	kinds     map[string]int64
	first     map[string]string
	known     int64
}

func newFailures() *failures {
	return &failures{kinds: map[string]int64{}, first: map[string]string{}}
}

func (f *failures) attempt() { f.attempted++ }

func (f *failures) fail(kind, detail string) {
	if f.kinds[kind] == 0 {
		f.first[kind] = detail
	}
	f.kinds[kind]++
}

func (f *failures) failed() int64 {
	var n int64
	for _, c := range f.kinds {
		n += c
	}
	return n
}

func (f *failures) okShare() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.attempted-f.failed()) / float64(f.attempted)
}

// print lists every failure kind with its count and first detail.
func (f *failures) print(w io.Writer) {
	fmt.Fprintf(w, "attempted %d, failed %d\n", f.attempted, f.failed())
	kinds := make([]string, 0, len(f.kinds))
	for k := range f.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  failure %s: %d (first: %s)\n", k, f.kinds[k], oneLine(f.first[k]))
	}
	if f.known > 0 {
		fmt.Fprintf(w, "  known oracle false positive (fast_inv_sqrt approximation; the module agrees once the call is exact): %d\n", f.known)
	}
}

func oneLine(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > 300 {
		s = s[:300] + "..."
	}
	return s
}

func main() {
	var o options
	var traceFlag int
	report := flag.Bool("report", false, "print the steadiness report of every recorded run and exit")
	flag.StringVar(&o.workload, "workload", "", "workload: paper, nmm or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 30, "seconds the timed loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced pass instead of end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run history and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	if *report {
		if err := printReport(os.Stdout, o.out, ""); err != nil {
			fatal(err)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	var metrics map[string]float64
	fails := newFailures()
	var err error
	switch o.workload {
	case "paper", "nmm":
		metrics, err = runCompile(o, fails)
	case "serve":
		metrics, err = runServe(o, fails)
	default:
		err = fmt.Errorf("unknown workload %q (want paper, nmm or serve)", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	res, err := assemble(o, metrics, fails)
	if err != nil {
		fatal(err)
	}
	if err := appendHistory(o, res); err != nil {
		fatal(err)
	}
	if err := printReport(os.Stderr, o.out, o.workload); err != nil {
		fatal(err)
	}
	fails.print(os.Stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// assemble checks that the workload produced exactly the metrics
// BENCHMARK.json declares for the mode and attaches their units.
func assemble(o options, values map[string]float64, fails *failures) (*result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   fails.failed() == 0 && fails.attempted > 0,
		Attempted: fails.attempted,
		Failed:    fails.failed(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("workload %s measured undeclared metric %s", o.workload, name)
			}
		}
	}
	return res, nil
}

// metricDef names one metric, as in BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, and every workload
// measures all of them. compile_ms is the latency of a request that runs
// the optimizer: on paper and nmm each compile from parse to print, its
// p10 and p90 taken per input and combined with the geometric mean (see
// perInput for why p10 and not the median); on
// serve a cache miss, pooled, as each fresh module is sent once.
// repeat_ms is the latency of an input seen before: on serve a cache hit,
// per hot module and combined likewise; paper and nmm have no cache, so a
// repeat costs a full compile and repeat_ms equals compile_ms there. On
// paper and nmm a request is one single-function module, so
// requests_per_s equals funcs_per_s, both per second of compile time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"funcs_per_s", "1/s", "higher"},
	{"requests_per_s", "1/s", "higher"},
	{"compile_ms_p10", "ms", "lower"},
	{"compile_ms_p90", "ms", "lower"},
	{"repeat_ms_p10", "ms", "lower"},
	{"repeat_ms_p90", "ms", "lower"},
	{"allocs_per_func", "count", "lower"},
	{"alloc_kb_per_func", "KB", "lower"},
	{"speedup_geomean", "ratio", "higher"},
	{"ok_share", "share", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// compileModule is the untraced path: parse, optimize every function with
// one match worker, print.
func compileModule(src string, ruleSrcs []string, cfg egraph.RunConfig, canonical bool) (string, error) {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(src, reg)
	if err != nil {
		return "", &stageError{kindParse, err}
	}
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: ruleSrcs, RunConfig: cfg, Workers: 1})
	if _, err := opt.OptimizeModule(m); err != nil {
		return "", &stageError{kindOptimizer, err}
	}
	if canonical {
		return mlir.PrintModuleCanonical(m, reg), nil
	}
	return mlir.PrintModule(m, reg), nil
}

// allocSnapshot reads the process's cumulative allocation counters.
func allocSnapshot() (allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
