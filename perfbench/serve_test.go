package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"dialegg/internal/difftest"
	"dialegg/internal/egraph"
	"dialegg/internal/memo"
	"dialegg/internal/serve"
)

func TestPlanIsDeterministic(t *testing.T) {
	encode := func(p *plan) []byte {
		var b bytes.Buffer
		for _, m := range append(append([]*module(nil), p.hot...), p.seq...) {
			data, err := json.Marshal(m.req)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	a, err := makePlan(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makePlan(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("the same seed gave different request sequences")
	}
	for _, n := range []int{0, 1, 100, 400} {
		ha, ma := a.planned(n)
		hb, mb := b.planned(n)
		if ha != hb || ma != mb {
			t.Errorf("planned(%d) = %d/%d and %d/%d", n, ha, ma, hb, mb)
		}
	}
	hits, misses := a.planned(400)
	if hits+misses != 400+hotModules || hits < 250 || hits > 390 {
		t.Errorf("planned 400 requests as %d hits, %d misses", hits, misses)
	}
	c, err := makePlan(8, 400)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(a), encode(c)) {
		t.Error("different seeds gave the same request sequence")
	}
	keys := map[string]bool{}
	for _, m := range append(append([]*module(nil), a.hot...), a.seq...) {
		if !m.hot && keys[m.key] {
			t.Fatalf("fresh module %d repeats a key", m.id)
		}
		keys[m.key] = true
	}
}

// After warm-up and a whole plan, the server's own counters equal the
// plan exactly: every hot request a hit, every fresh one a miss and a run.
func TestStatzEqualsPlan(t *testing.T) {
	p, err := makePlan(3, 150)
	if err != nil {
		t.Fatal(err)
	}
	fails := newFailures()
	h, _, err := setupServe(p, fails)
	if err != nil {
		t.Fatal(err)
	}
	l := &serveLoop{p: p, h: h, fails: fails}
	if sent, _ := l.run(120, 0, nil); sent != len(p.seq) {
		t.Fatalf("sent %d of %d planned requests", sent, len(p.seq))
	}
	st, err := h.client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.close(); err != nil {
		t.Fatal(err)
	}
	hits, misses := p.planned(len(p.seq))
	if st.Hits != hits || st.Misses != misses || st.Runs != misses {
		t.Errorf("/statz hits %d misses %d runs %d; plan hits %d misses %d", st.Hits, st.Misses, st.Runs, hits, misses)
	}
	checkStatz(p, len(p.seq), st, fails)
	if fails.failed() != 0 {
		fails.print(testWriter{t})
		t.Errorf("%d failures", fails.failed())
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// The fast_inv_sqrt approximation flips a comparison against 1.0: the
// oracle rejects the output, and the exact-call check recognizes it as
// the known false positive. A wrong output is not excused.
func TestOracleKnownFalsePositive(t *testing.T) {
	src := `func.func @f(%x: f64, %y: f64, %z: f64) -> f64 {
  %one = arith.constant 1.0 : f64
  %s = math.sqrt %one fastmath<fast> : f64
  %r = arith.divf %one, %s fastmath<fast> : f64
  %c = arith.cmpf ult, %r, %one : f64
  %o = arith.select %c, %x, %y : f64
  func.return %o : f64
}
`
	b, err := difftest.BundleFor("vecnorm")
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := memo.CanonicalizeMLIR(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := compileModule(canonical, b.Rules, egraph.RunConfig{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "@fast_inv_sqrt") {
		t.Fatalf("the rule did not fire:\n%s", out)
	}
	m := &module{bundle: b, req: &serve.OptimizeRequest{MLIR: src}}
	if _, err := oracle(src, out, b); kindOf(err) != kindInterp {
		t.Fatalf("oracle on the approximated output: %v, want an interpreter mismatch", err)
	}
	if !knownFalsePositive(m, out) {
		t.Error("the approximation's comparison flip was not recognized")
	}
	if _, err := oracle(src, canonical, b); err != nil {
		t.Errorf("oracle on the unoptimized module: %v", err)
	}
	wrong := regexp.MustCompile(`arith.select (%\d+), %0, %1`).ReplaceAllString(out, "arith.select $1, %1, %0")
	if wrong == out {
		t.Fatalf("could not build a wrong output from:\n%s", out)
	}
	if knownFalsePositive(m, wrong) {
		t.Error("a wrong output was excused as the known false positive")
	}
}
