package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/difftest"
	"dialegg/internal/egraph"
	"dialegg/internal/genmod"
	"dialegg/internal/interp"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/serve"
)

// The serve workload's traffic: one closed-loop client sends modules of
// 1 to maxFuncs generated functions over the four bundled rule sets.
// hotShare of the requests draw uniformly from hotModules modules warmed
// during set-up (cache hits); the rest are modules never sent before
// (misses, which compute and write the cache).
const (
	hotModules = 64
	hotShare   = 0.8
	maxFuncs   = 3
	genOps     = 12
	// planRate sizes the pre-generated request sequence: about twice the
	// request rate measured on a 2-vCPU host. A run that uses it all up
	// ends early.
	planRate = 2500
)

var ruleSets = []string{"imgconv", "vecnorm", "poly", "matmul"}

// module is one distinct request of the plan.
type module struct {
	id        int
	bundle    difftest.Bundle // rule sources and the oracle's numeric policy
	req       *serve.OptimizeRequest
	canonical string
	key       string
	funcs     int
	hot       bool
	// body is the response to the module's first request: the warm-up
	// for a hot module, the miss for a fresh one.
	body []byte
	lat  []float64 // hit latencies in ms (hot modules)
}

// plan is the seeded traffic: the hot set and the request sequence sent
// after warm-up.
type plan struct {
	hot []*module
	seq []*module
}

// makePlan generates n requests from seed. Modules are distinct by cache
// key, so every fresh request is a miss and every hot one a hit.
func makePlan(seed int64, n int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	next := 0
	newModule := func(hot bool) (*module, error) {
		// Rule set and function count cycle rather than being drawn, so
		// every seed sends the same mix and only the generated functions
		// differ between seeds.
		rs := ruleSets[next%len(ruleSets)]
		nf := 1 + next/len(ruleSets)%maxFuncs
		b, err := difftest.BundleFor(rs)
		if err != nil {
			return nil, err
		}
		for {
			var src strings.Builder
			for f := 0; f < nf; f++ {
				src.WriteString(genmod.Generate(genmod.Config{
					Seed: rng.Int63(), Ops: genOps, Profile: b.Profile, FuncName: fmt.Sprintf("f%d", f),
				}))
			}
			canonical, err := memo.CanonicalizeMLIR(src.String())
			if err != nil {
				return nil, fmt.Errorf("generated module does not parse: %w", err)
			}
			key := memo.Key(canonical, b.Rules, egraph.RunConfig{})
			if seen[key] {
				continue
			}
			seen[key] = true
			// The bundled imgconv set carries the paper's div->shr rule,
			// which is unsound on negative dividends by design (the
			// oracle's corpus pins it as a failure); its requests send the
			// oracle's sound bundle inline instead. The other three
			// bundled sets equal their oracle bundles.
			req := &serve.OptimizeRequest{MLIR: src.String(), RuleSet: rs}
			if rs == "imgconv" {
				req = &serve.OptimizeRequest{MLIR: src.String(), Rules: b.Rules}
			}
			m := &module{id: next, bundle: b, req: req, canonical: canonical, key: key, funcs: nf, hot: hot}
			next++
			return m, nil
		}
	}
	p := &plan{}
	for i := 0; i < hotModules; i++ {
		m, err := newModule(true)
		if err != nil {
			return nil, err
		}
		p.hot = append(p.hot, m)
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < hotShare {
			p.seq = append(p.seq, p.hot[rng.Intn(hotModules)])
			continue
		}
		m, err := newModule(false)
		if err != nil {
			return nil, err
		}
		p.seq = append(p.seq, m)
	}
	return p, nil
}

// planned counts the hits and misses the server must report after warm-up
// and the first n requests of the sequence.
func (p *plan) planned(n int) (hits, misses uint64) {
	misses = uint64(len(p.hot))
	for _, m := range p.seq[:n] {
		if m.hot {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// harness is an in-process serve.Server on loopback with one client
// connection.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	tr     *http.Transport
	client *serve.Client
	done   chan error
}

func startHarness() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		srv:  serve.New(serve.Config{Workers: 1}),
		tr:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		done: make(chan error, 1),
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: h.tr}}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the HTTP server and the worker pool and waits for both.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.srv.Drain(ctx)
	h.tr.CloseIdleConnections()
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// send makes one request and counts its failure, if any, by kind.
func send(h *harness, m *module, fails *failures) ([]byte, string, bool) {
	fails.attempt()
	body, source, err := h.client.OptimizeRaw(context.Background(), m.req)
	if err != nil {
		var ae *serve.APIError
		if errors.As(err, &ae) {
			fails.fail(fmt.Sprintf("http_status_%d", ae.StatusCode), ae.Message)
		} else {
			fails.fail(kindTransport, err.Error())
		}
		return nil, "", false
	}
	return body, source, true
}

// setupServe starts a server and warms the hot set, returning the seconds
// it took. The request bodies already exist; only serving them is timed.
func setupServe(p *plan, fails *failures) (*harness, float64, error) {
	runtime.GC()
	start := time.Now()
	h, err := startHarness()
	if err != nil {
		return nil, 0, err
	}
	for _, m := range p.hot {
		body, source, ok := send(h, m, fails)
		if !ok {
			continue
		}
		if source != "miss" {
			fails.fail(kindPlan, fmt.Sprintf("warm-up of module %d was a %s", m.id, source))
		}
		m.body = body
	}
	return h, time.Since(start).Seconds(), nil
}

// serveLoop is the state of the timed loop over the plan.
type serveLoop struct {
	p     *plan
	h     *harness
	fails *failures
	pos   int       // requests of p.seq sent so far
	miss  []float64 // miss latencies in ms
	funcs int64     // functions in successful responses
	ok    int64     // successful responses
}

// run sends the plan's requests in order until the time is up and, when
// need > 0, every hot module has need hit samples; it also stops when the
// plan runs out or twice the time has passed. With a tracer, each request
// also replays, client-side and traced, the canonicalization and keying
// the server does, and each miss the optimization it ran.
func (l *serveLoop) run(seconds, need int, t *tracer) (sent int, elapsed time.Duration) {
	budget := time.Duration(seconds) * time.Second
	below := 0
	if need > 0 {
		for _, m := range l.p.hot {
			if len(m.lat) < need {
				below++
			}
		}
	}
	start := time.Now()
	for l.pos < len(l.p.seq) {
		elapsed = time.Since(start)
		if elapsed >= 2*budget || (elapsed >= budget && below == 0) {
			break
		}
		m := l.p.seq[l.pos]
		id := l.pos
		l.pos++
		sent++
		if t != nil {
			traceKeying(t, id, m, l.fails)
			t.begin("serve.request", id)
		}
		t0 := time.Now()
		body, source, ok := send(l.h, m, l.fails)
		lat := ms(time.Since(t0))
		if t != nil {
			t.end()
			if source == "hit" {
				t.spans[len(t.spans)-1].Name = "serve.hit"
			}
		}
		if !ok {
			continue
		}
		want := "miss"
		if m.hot {
			want = "hit"
		}
		switch {
		case source != want:
			l.fails.fail(kindPlan, fmt.Sprintf("request %d for module %d was a %s, planned a %s", id, m.id, source, want))
		case m.hot && !bytes.Equal(body, m.body):
			l.fails.fail(kindOutput, fmt.Sprintf("hit on module %d returned other bytes than its warm-up", m.id))
		case m.hot:
			if t == nil {
				m.lat = append(m.lat, lat)
				if len(m.lat) == need {
					below--
				}
			}
		default:
			m.body = body
			if t == nil {
				l.miss = append(l.miss, lat)
			} else {
				traceMiss(t, id, m, body, l.fails)
			}
		}
		if source == want {
			l.ok++
			l.funcs += int64(m.funcs)
		}
	}
	return sent, time.Since(start)
}

// traceKeying replays, traced, what the server does on every request
// before it looks at the cache: canonicalize (parse and canonical print)
// and derive the key.
func traceKeying(t *tracer, id int, m *module, fails *failures) {
	t.begin("memo.canon", id)
	reg := dialects.NewRegistry()
	t.begin("mlir.parse", id)
	mod, err := mlir.ParseModule(m.req.MLIR, reg)
	t.end()
	var canonical string
	if err == nil {
		t.begin("mlir.print", id)
		canonical = mlir.PrintModuleCanonical(mod, reg)
		t.end()
	}
	t.end()
	t.begin("memo.key", id)
	key := memo.Key(canonical, m.bundle.Rules, egraph.RunConfig{})
	t.end()
	fails.attempt()
	if err != nil || key != m.key {
		fails.fail(kindOutput, fmt.Sprintf("traced canonicalization of module %d gave another key", m.id))
	}
}

// traceMiss replays, traced, the optimization the server ran for a miss
// and checks the re-composed pipeline printed the bytes the server sent.
func traceMiss(t *tracer, id int, m *module, body []byte, fails *failures) {
	t.begin("replay", id)
	out, err := optimizeTraced(t, id, m.canonical, m.bundle.Rules, egraph.RunConfig{Workers: 1}, true)
	t.end()
	fails.attempt()
	if err != nil {
		fails.fail(kindOf(err), fmt.Sprintf("traced replay of module %d: %v", m.id, err))
		return
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.MLIR != out {
		fails.fail(kindOutput, fmt.Sprintf("traced replay of module %d printed other bytes than the server", m.id))
	}
}

// runServe runs the serve workload and returns its metrics.
func runServe(o options, fails *failures) (map[string]float64, error) {
	p, err := makePlan(o.seed, o.seconds*planRate)
	if err != nil {
		return nil, err
	}
	for _, m := range p.hot {
		m.lat = make([]float64, 0, 2*len(p.seq)/hotModules)
	}

	nSetup := setupRuns
	if o.trace {
		nSetup = 1
	}
	var setups []float64
	var h *harness
	for i := 0; i < nSetup; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		var s float64
		h, s, err = setupServe(p, fails)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	l := &serveLoop{p: p, h: h, fails: fails, miss: make([]float64, 0, len(p.seq))}

	var values map[string]float64
	var t *tracer
	if o.trace {
		values, t = traceServe(o, l)
	} else {
		runtime.GC()
		a0, b0 := allocSnapshot()
		sent, elapsed := l.run(o.seconds, perInputSamples, nil)
		a1, b1 := allocSnapshot()
		hits, misses := p.planned(sent)
		fmt.Fprintf(os.Stderr, "serve: %d requests (%d hits, %d misses after %d warm-up misses) in %.2fs; plan has %d\n",
			sent, hits, misses-hotModules, hotModules, elapsed.Seconds(), len(p.seq))
		var groups [][]float64
		for _, m := range p.hot {
			groups = append(groups, m.lat)
		}
		r10, r90, ok := perInput(groups)
		if !ok {
			return nil, fmt.Errorf("a hot module has fewer than %d hits", perInputSamples)
		}
		miss := sortedCopy(l.miss)
		c10, ok10 := percentile(miss, 0.1)
		c90, ok90 := percentile(miss, 0.9)
		if !ok10 || !ok90 {
			return nil, fmt.Errorf("only %d misses, too few for a p10 and a p90", len(miss))
		}
		values = map[string]float64{
			"setup_s":           median(setups),
			"funcs_per_s":       float64(l.funcs) / elapsed.Seconds(),
			"requests_per_s":    float64(l.ok) / elapsed.Seconds(),
			"compile_ms_p10":    c10,
			"compile_ms_p90":    c90,
			"repeat_ms_p10":     r10,
			"repeat_ms_p90":     r90,
			"allocs_per_func":   float64(a1-a0) / float64(l.funcs),
			"alloc_kb_per_func": float64(b1-b0) / 1024 / float64(l.funcs),
		}
	}

	st, err := h.client.Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reading /statz: %w", err)
	}
	checkStatz(p, l.pos, st, fails)
	if err := h.close(); err != nil {
		return nil, err
	}

	verifyStart := time.Now()
	hot, fresh := verifyServe(p, l.pos, fails)
	fmt.Fprintf(os.Stderr, "serve: verification took %.1fs\n", time.Since(verifyStart).Seconds())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if t != nil {
		values["interp.speedup.serve_hot"] = geomean(hot)
		values["interp.speedup.serve_fresh"] = geomean(fresh)
		values["memo.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
		values["serve.runs"] = float64(st.Runs)
		values["serve.errors"] = float64(st.Errors)
		values["serve.queue_full"] = float64(st.QueueFull)
		if err := t.write(filepath.Join(o.out, fmt.Sprintf("spans-serve-seed%d.json", o.seed))); err != nil {
			return nil, err
		}
		return values, nil
	}
	values["speedup_geomean"] = geomean(append(hot, fresh...))
	values["ok_share"] = fails.okShare()
	values["peak_rss_mb"] = rss
	return values, nil
}

// checkStatz checks the server's own counters against the plan: after
// warm-up and n requests, hits, misses and runs are exactly as planned.
func checkStatz(p *plan, n int, st *serve.ServerStats, fails *failures) {
	hits, misses := p.planned(n)
	fails.attempt()
	if st.Hits != hits || st.Misses != misses || st.Runs != misses || st.Errors != 0 || st.QueueFull != 0 {
		fails.fail(kindPlan, fmt.Sprintf("/statz hits %d misses %d runs %d errors %d queue_full %d, planned hits %d misses %d",
			st.Hits, st.Misses, st.Runs, st.Errors, st.QueueFull, hits, misses))
	}
}

// traceServe measures untraced throughput for half the time, then runs
// the traced half and reports per-layer metrics.
func traceServe(o options, l *serveLoop) (map[string]float64, *tracer) {
	half := (o.seconds + 1) / 2
	runtime.GC()
	plainSent, plainElapsed := l.run(half, 0, nil)
	t := newTracer()
	runtime.GC()
	sent, elapsed := l.run(half, 0, t)
	overhead := (float64(plainSent)/plainElapsed.Seconds())/(float64(sent)/elapsed.Seconds()) - 1
	return layerMetrics(t, int64(sent), overhead), t
}

// verifyServe checks every distinct module sent. The optimized module the
// server returned must verify and agree with the original under the
// difftest oracle's policy; for the hot set it must also byte-equal the
// optimizer's own output (the traced run checks this for every miss it
// replays). It returns the cycle speedups of the hot and the fresh
// modules.
func verifyServe(p *plan, n int, fails *failures) (hot, fresh []float64) {
	mods := append([]*module(nil), p.hot...)
	for _, m := range p.seq[:n] {
		if !m.hot {
			mods = append(mods, m)
		}
	}
	for _, m := range mods {
		if m.body == nil {
			continue // its request failed and was counted
		}
		fails.attempt()
		var resp serve.OptimizeResponse
		if err := json.Unmarshal(m.body, &resp); err != nil {
			fails.fail(kindOutput, fmt.Sprintf("module %d: decoding response: %v", m.id, err))
			continue
		}
		if m.hot {
			want, err := compileModule(m.canonical, m.bundle.Rules, egraph.RunConfig{}, true)
			if err != nil {
				fails.fail(kindOf(err), fmt.Sprintf("module %d: %v", m.id, err))
				continue
			}
			if resp.MLIR != want {
				fails.fail(kindOutput, fmt.Sprintf("module %d: server output differs from the optimizer's", m.id))
				continue
			}
		}
		sp, err := oracle(m.req.MLIR, resp.MLIR, m.bundle)
		if err != nil && knownFalsePositive(m, resp.MLIR) {
			fails.known++
		} else if err != nil {
			fails.fail(kindOf(err), fmt.Sprintf("module %d (%s): %v", m.id, m.bundle.Name, err))
			continue
		}
		if sp == 0 {
			continue // the cost model charges nothing, so there is no ratio
		}
		if m.hot {
			hot = append(hot, sp)
		} else {
			fresh = append(fresh, sp)
		}
	}
	return hot, fresh
}

// fastInvSqrtCall matches the call the §7.3 rule plants, as printed.
var fastInvSqrtCall = regexp.MustCompile(`func\.call @fast_inv_sqrt\((%\w+)\) : \((\w+)\) -> \w+`)

// knownFalsePositive reports whether an oracle failure on a vecnorm module
// is the oracle's known false positive: fast_inv_sqrt's approximation
// error crossing a comparison or surviving a cancellation, which the
// bundle's tolerance cannot absorb. It is when the optimized module, with
// every fast_inv_sqrt call made exact (math.rsqrt), passes the oracle.
func knownFalsePositive(m *module, optimized string) bool {
	exact := fastInvSqrtCall.ReplaceAllString(optimized, "math.rsqrt $1 : $2")
	if m.bundle.Name != "vecnorm" || exact == optimized {
		return false
	}
	_, err := oracle(m.req.MLIR, exact, m.bundle)
	return err == nil
}

// oracle is difftest.Check's verdict on an optimized module given as
// text: it must parse and verify, and every function must agree with the
// original on the oracle's input vectors (seed 1, five per function)
// under the bundle's tolerance and non-finite exemption. It returns the
// original's interpreter cycles over the optimized module's on the
// compared vectors, or 0 when either side costs no cycles (a module of
// constants, or one the optimizer folded to constants).
func oracle(origSrc, optSrc string, b difftest.Bundle) (float64, error) {
	reg := dialects.NewRegistry()
	orig, err := mlir.ParseModule(origSrc, reg)
	if err != nil {
		return 0, &stageError{kindInput, err}
	}
	opt, err := mlir.ParseModule(optSrc, reg)
	if err != nil {
		return 0, &stageError{kindOutput, fmt.Errorf("optimized module does not parse: %w", err)}
	}
	if err := reg.Verify(opt.Op); err != nil {
		return 0, &stageError{kindOutput, fmt.Errorf("optimized module does not verify: %w", err)}
	}
	base, fast := interp.New(orig), interp.New(opt)
	var baseCycles, fastCycles int64
	for _, f := range orig.Funcs() {
		fn := mlir.FuncName(f)
		ft, _ := mlir.FuncType(f)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5; i++ {
			args, err := difftest.RandomArgs(ft, rng)
			if err != nil {
				return 0, &stageError{kindInput, err}
			}
			c0 := base.Stats.Cycles
			want, err := base.Call(fn, args...)
			if err != nil {
				return 0, &stageError{kindInput, fmt.Errorf("@%s does not execute: %w", fn, err)}
			}
			if b.ExemptNonFinite && nonFinite(want) {
				continue
			}
			baseCycles += base.Stats.Cycles - c0
			c0 = fast.Stats.Cycles
			got, err := fast.Call(fn, args...)
			if err != nil {
				return 0, &stageError{kindInterp, fmt.Errorf("optimized @%s fails: %w", fn, err)}
			}
			fastCycles += fast.Stats.Cycles - c0
			if err := b.Tolerance.CompareResults(got, want); err != nil {
				return 0, &stageError{kindInterp, fmt.Errorf("@%s(%s): %w", fn, difftest.FormatInputs(args), err)}
			}
		}
	}
	if baseCycles == 0 || fastCycles == 0 {
		return 0, nil
	}
	return float64(baseCycles) / float64(fastCycles), nil
}

func nonFinite(vals []interp.Value) bool {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	for _, v := range vals {
		if v.IsFloat() && bad(v.Float()) {
			return true
		}
		if v.IsTensor() && v.Tensor().IsFloat() {
			for _, f := range v.Tensor().F {
				if bad(f) {
					return true
				}
			}
		}
	}
	return false
}
