package main

import (
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/sexp"
)

// The traced re-composition must print exactly what the optimizer's own
// entry point prints, or the trace would time another program.
func TestTracedPipelineMatchesOptimizer(t *testing.T) {
	ins := append(paperInputs(1), nmmInputs(1)[:2]...)
	for _, in := range ins {
		want, err := compileModule(in.src, in.rules, in.cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		tr := newTracer()
		got, err := optimizeTraced(tr, 0, in.src, in.rules, oneWorker(in.cfg), false)
		if err != nil {
			t.Fatalf("%s traced: %v", in.name, err)
		}
		if got != want {
			t.Errorf("%s: traced output differs from OptimizeModule's", in.name)
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", in.name, len(tr.open))
		}
	}
	p, err := makePlan(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.hot[:16] {
		want, err := compileModule(m.canonical, m.bundle.Rules, egraph.RunConfig{}, true)
		if err != nil {
			t.Fatalf("module %d: %v", m.id, err)
		}
		got, err := optimizeTraced(newTracer(), 0, m.canonical, m.bundle.Rules, egraph.RunConfig{Workers: 1}, true)
		if err != nil {
			t.Fatalf("module %d traced: %v", m.id, err)
		}
		if got != want {
			t.Errorf("module %d: traced output differs from OptimizeModule's", m.id)
		}
	}
}

// Self time and allocations exclude the children's.
func TestTracerSelfTotals(t *testing.T) {
	tr := newTracer()
	tr.begin("outer", 0)
	tr.begin("inner", 0)
	sink = make([]byte, 1<<10)
	tr.end()
	tr.end()
	totals, roots := tr.totals()
	outer, inner := totals["outer"], totals["inner"]
	if inner.allocs < 1 || outer.allocs != 0 {
		t.Errorf("allocs: outer %d, inner %d; want 0 and at least 1", outer.allocs, inner.allocs)
	}
	if roots != outer.self+inner.self {
		t.Errorf("root time %v != outer self %v + inner self %v", roots, outer.self, inner.self)
	}
}

var sink []byte

func TestTermSizeCountsEqualSubtermsOnce(t *testing.T) {
	g := func() *sexp.Node { return sexp.List(sexp.Symbol("g"), sexp.Symbol("a")) }
	term := sexp.List(sexp.Symbol("f"), g(), g(), sexp.List(sexp.Symbol("g"), sexp.Symbol("b")))
	if n := termSize(term); n != 3 {
		t.Errorf("termSize = %d, want 3", n)
	}
}
