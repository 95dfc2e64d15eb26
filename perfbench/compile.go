package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dialegg/internal/bench"
	"dialegg/internal/dialects"
	"dialegg/internal/difftest"
	"dialegg/internal/egraph"
	"dialegg/internal/interp"
	"dialegg/internal/mlir"
	"dialegg/internal/rules"
)

// nmmChains are the nmm workload's matmul chain lengths: long enough for
// saturation to dominate compile time, short enough for each chain to
// get the 100 samples a p90 needs within one run.
var nmmChains = []int{8, 10, 12, 16}

// input is one program of a compile workload.
type input struct {
	name     string // metric suffix, e.g. "img_conv"
	src      string
	fn       string
	rules    []string
	cfg      egraph.RunConfig
	tol      float64 // Figure 3 relative checksum tolerance
	seed     int64   // seeds the interpreter's argument vector
	expected string  // the optimized module, printed during set-up
	lat      []float64
	speedup  float64
}

// paperInputs are the paper's five §8.2 programs at CI scale.
func paperInputs(seed int64) []*input {
	var out []*input
	for i, b := range bench.DefaultBenchmarks(bench.ScaleCI) {
		out = append(out, &input{
			name:  strings.ToLower(strings.ReplaceAll(b.Name, " ", "_")),
			src:   b.Source,
			fn:    b.FuncName,
			rules: b.Rules,
			cfg:   b.RunConfig,
			tol:   b.Tolerance,
			seed:  seed*31 + int64(i),
		})
	}
	return out
}

// nmmInputs are Table 2's scalability chains under its run bounds.
func nmmInputs(seed int64) []*input {
	var out []*input
	for i, n := range nmmChains {
		out = append(out, &input{
			name:  fmt.Sprintf("%dmm", n),
			src:   bench.MatmulChainSource(fmt.Sprintf("mm%d", n), bench.NMMDims(n)),
			fn:    fmt.Sprintf("mm%d", n),
			rules: rules.MatmulChain(),
			cfg: egraph.RunConfig{
				NodeLimit:  2_000_000,
				MatchLimit: 2_000_000,
				TimeLimit:  240 * time.Second,
				IterLimit:  120,
			},
			tol:  1e-9,
			seed: seed*31 + int64(i),
		})
	}
	return out
}

// compileGCPercent is the collector's GOGC while a compile workload runs.
// Their live heap is a few megabytes while nmm allocates 8 MB per
// function, so at the default of 100 the collector runs about once per
// compile and its dedicated worker on the other core ties wall time to
// whatever else that core runs: alternating 30 s runs of nmm on a 2-vCPU
// VM gave 38 to 46 functions per second at 100 and 50 to 54 at 400. The
// allocation counts do not depend on it. serve keeps the default: its
// cache and plan hold about 90 MB live, and at 400 its heap grew to
// 500 MB while alternating runs were no steadier.
const compileGCPercent = 400

// runCompile runs the paper or nmm workload and returns its metrics.
func runCompile(o options, fails *failures) (map[string]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(compileGCPercent))
	ins := paperInputs(o.seed)
	if o.workload == "nmm" {
		ins = nmmInputs(o.seed)
	}
	order := rand.New(rand.NewSource(o.seed))

	nSetup := setupRuns
	if o.trace {
		nSetup = 1
	}
	var setups []float64
	for i := 0; i < nSetup; i++ {
		setups = append(setups, setupCompile(ins, fails))
	}
	verifyCompile(ins, fails)

	if o.trace {
		return traceCompile(o, ins, order, fails)
	}

	// Room for every sample, so the timed loop itself does not allocate.
	fastest := setups[0]
	for _, s := range setups {
		fastest = math.Min(fastest, s)
	}
	room := int(4*float64(o.seconds)/fastest) + perInputSamples
	for _, in := range ins {
		in.lat = make([]float64, 0, room)
	}
	runtime.GC()
	a0, b0 := allocSnapshot()
	funcs, busy := compileLoop(ins, order, o.seconds, perInputSamples, nil, fails)
	a1, b1 := allocSnapshot()

	var groups [][]float64
	var speedups []float64
	for _, in := range ins {
		groups = append(groups, in.lat)
		speedups = append(speedups, in.speedup)
	}
	p10, p90, ok := perInput(groups)
	if !ok {
		return nil, fmt.Errorf("an input has fewer than %d samples", perInputSamples)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rate := float64(funcs) / busy.Seconds()
	return map[string]float64{
		"setup_s":           median(setups),
		"funcs_per_s":       rate,
		"requests_per_s":    rate,
		"compile_ms_p10":    p10,
		"compile_ms_p90":    p90,
		"repeat_ms_p10":     p10,
		"repeat_ms_p90":     p90,
		"allocs_per_func":   float64(a1-a0) / float64(funcs),
		"alloc_kb_per_func": float64(b1-b0) / 1024 / float64(funcs),
		"speedup_geomean":   geomean(speedups),
		"ok_share":          fails.okShare(),
		"peak_rss_mb":       rss,
	}, nil
}

// setupCompile parses every input and compiles it once cold (which loads
// its rule sources), keeping the printed output every later compile must
// match. It returns the seconds it took.
func setupCompile(ins []*input, fails *failures) float64 {
	runtime.GC()
	start := time.Now()
	for _, in := range ins {
		fails.attempt()
		out, err := compileModule(in.src, in.rules, in.cfg, false)
		switch {
		case err != nil:
			fails.fail(kindOf(err), in.name+": "+err.Error())
		case in.expected != "" && out != in.expected:
			fails.fail(kindOutput, in.name+": set-up compiles printed different modules")
		default:
			in.expected = out
		}
	}
	return time.Since(start).Seconds()
}

// verifyCompile interprets each input's unoptimized and optimized module
// on the same seeded arguments, checks the outputs agree within the
// program's Figure 3 tolerance, and records the cycle speedup.
func verifyCompile(ins []*input, fails *failures) {
	for _, in := range ins {
		fails.attempt()
		base, err := interpret(in.src, in)
		if err != nil {
			fails.fail(kindInput, in.name+": baseline: "+err.Error())
			continue
		}
		opt, err := interpret(in.expected, in)
		if err != nil {
			fails.fail(kindInterp, in.name+": optimized: "+err.Error())
			continue
		}
		if !checksumOK(base.checksum, opt.checksum, in.tol) {
			fails.fail(kindInterp, fmt.Sprintf("%s: checksum %g, baseline %g (tolerance %g)", in.name, opt.checksum, base.checksum, in.tol))
			continue
		}
		in.speedup = float64(base.cycles) / float64(opt.cycles)
	}
}

type interpResult struct {
	cycles   int64
	checksum float64
}

// interpret runs in.fn of the module src on the input's seeded arguments.
func interpret(src string, in *input) (interpResult, error) {
	m, err := mlir.ParseModule(src, dialects.NewRegistry())
	if err != nil {
		return interpResult{}, err
	}
	f, ok := m.FindFunc(in.fn)
	if !ok {
		return interpResult{}, fmt.Errorf("no function @%s", in.fn)
	}
	ft, ok := mlir.FuncType(f)
	if !ok {
		return interpResult{}, fmt.Errorf("@%s has no function type", in.fn)
	}
	args, err := difftest.RandomArgs(ft, rand.New(rand.NewSource(in.seed)))
	if err != nil {
		return interpResult{}, err
	}
	it := interp.New(m)
	res, err := it.Call(in.fn, args...)
	if err != nil {
		return interpResult{}, err
	}
	var sum float64
	for _, v := range res {
		switch {
		case v.IsTensor():
			sum += v.Tensor().Checksum()
		case v.IsFloat():
			sum += v.Float()
		default:
			sum += float64(v.Int())
		}
	}
	return interpResult{cycles: it.Stats.Cycles, checksum: sum}, nil
}

// checksumOK is Figure 3's output check: the relative checksum deviation
// from the baseline is within the program's tolerance.
func checksumOK(base, got, tol float64) bool {
	if base == got {
		return true
	}
	denom := math.Abs(base)
	if denom == 0 {
		denom = 1
	}
	return math.Abs(base-got)/denom <= tol
}

// compileLoop compiles the inputs round after round, each round in a
// seeded order, until the time is up and every input has need latency
// samples (or twice the time has passed). Only whole rounds run, so
// per-function averages weigh every input alike. It returns the number of
// compiles and the time they took.
//
// With a tracer the traced re-composition compiles instead of the
// optimizer's own entry point, and no latency is kept.
func compileLoop(ins []*input, order *rand.Rand, seconds, need int, t *tracer, fails *failures) (funcs int64, busy time.Duration) {
	idx := make([]int, len(ins))
	for i := range idx {
		idx[i] = i
	}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for {
		order.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			in := ins[i]
			fails.attempt()
			t0 := time.Now()
			var out string
			var err error
			if t != nil {
				t.begin("compile", int(funcs))
				out, err = optimizeTraced(t, int(funcs), in.src, in.rules, oneWorker(in.cfg), false)
				t.end()
			} else {
				out, err = compileModule(in.src, in.rules, in.cfg, false)
			}
			took := time.Since(t0)
			busy += took
			funcs++
			switch {
			case err != nil:
				fails.fail(kindOf(err), in.name+": "+err.Error())
			case out != in.expected:
				fails.fail(kindOutput, in.name+": printed module differs from the set-up compile")
			case t == nil:
				in.lat = append(in.lat, ms(took))
			}
		}
		elapsed := time.Since(start)
		if elapsed >= 2*budget {
			return funcs, busy
		}
		if elapsed < budget {
			continue
		}
		enough := true
		for _, in := range ins {
			enough = enough && len(in.lat) >= need
		}
		if enough {
			return funcs, busy
		}
	}
}

// traceCompile measures untraced throughput for half the time, then runs
// the traced re-composition for the other half and reports per-layer
// metrics.
func traceCompile(o options, ins []*input, order *rand.Rand, fails *failures) (map[string]float64, error) {
	half := (o.seconds + 1) / 2
	runtime.GC()
	plainFuncs, plainBusy := compileLoop(ins, order, half, 0, nil, fails)
	t := newTracer()
	runtime.GC()
	funcs, busy := compileLoop(ins, order, half, 0, t, fails)
	if err := t.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	overhead := (float64(plainFuncs)/plainBusy.Seconds())/(float64(funcs)/busy.Seconds()) - 1
	values := layerMetrics(t, funcs, overhead)
	for _, in := range ins {
		values["interp.speedup."+in.name] = in.speedup
	}
	return values, nil
}

// oneWorker is cfg as dialegg.Options{Workers: 1} hands it to the engine.
func oneWorker(cfg egraph.RunConfig) egraph.RunConfig {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg
}
