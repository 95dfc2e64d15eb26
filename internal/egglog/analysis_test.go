package egglog

import (
	"testing"

	"dialegg/internal/egraph"
	"dialegg/internal/sched"
)

// These tests implement the paper's §9 outlook: "an exciting direction
// could be to use the lattice operations supported by Egglog" for program
// analyses beyond type information, in the style of the original egglog
// paper's points-to analysis.

// TestIntervalAnalysis runs a classic interval (range) analysis as an
// egglog lattice program: lo is a descending lattice (merge min), hi an
// ascending one (merge max); transfer rules propagate bounds through Add
// and Mul of non-negative ranges, and a conditional rewrite uses the
// derived facts.
func TestIntervalAnalysis(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (min old new))
(function hi (Expr) i64 :merge (max old new))

; constants have exact bounds
(rule ((= ?e (Num ?n))) ((set (lo ?e) ?n) (set (hi ?e) ?n)))

; addition adds bounds
(rule ((= ?e (Add ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b))
       (= ?ha (hi ?a)) (= ?hb (hi ?b)))
      ((set (lo ?e) (+ ?la ?lb)) (set (hi ?e) (+ ?ha ?hb))))

; multiplication of non-negative ranges multiplies bounds
(rule ((= ?e (Mul ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b))
       (= ?ha (hi ?a)) (= ?hb (hi ?b)) (>= ?la 0) (>= ?lb 0))
      ((set (lo ?e) (* ?la ?lb)) (set (hi ?e) (* ?ha ?hb))))

(let e (Add (Mul (Num 3) (Num 4)) (Num 5)))
(run 10)
`)
	g := p.Graph()
	lo, _ := g.FunctionByName("lo")
	hi, _ := g.FunctionByName("hi")
	e, _ := p.LookupLet("e")
	lv, ok := g.Lookup(lo, e)
	if !ok || lv.AsI64() != 17 {
		t.Errorf("lo(e) = %v,%v want 17", lv.AsI64(), ok)
	}
	hv, ok := g.Lookup(hi, e)
	if !ok || hv.AsI64() != 17 {
		t.Errorf("hi(e) = %v,%v want 17", hv.AsI64(), ok)
	}
}

// TestIntervalMergeAcrossUnion: when two expressions with different known
// ranges are proven equal, the lattice merges keep the tightest interval.
func TestIntervalMergeAcrossUnion(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (max old new)) ; lower bounds tighten upward
(function hi (Expr) i64 :merge (min old new)) ; upper bounds tighten downward
(let a (Var "a"))
(let b (Var "b"))
(set (lo a) 0)
(set (hi a) 100)
(set (lo b) 10)
(set (hi b) 50)
(union a b)
`)
	g := p.Graph()
	g.Rebuild()
	lo, _ := g.FunctionByName("lo")
	hi, _ := g.FunctionByName("hi")
	a, _ := p.LookupLet("a")
	lv, ok := g.Lookup(lo, a)
	if !ok || lv.AsI64() != 10 {
		t.Errorf("lo after union = %v,%v want 10 (tightest)", lv.AsI64(), ok)
	}
	hv, ok := g.Lookup(hi, a)
	if !ok || hv.AsI64() != 50 {
		t.Errorf("hi after union = %v,%v want 50 (tightest)", hv.AsI64(), ok)
	}
}

// TestAnalysisGuardedRewrite: a rewrite that fires only when the analysis
// proves the divisor non-zero — the §9 pattern of gating rules on derived
// facts (the MemoryEffects discussion's analogue for analyses).
func TestAnalysisGuardedRewrite(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(function lo (Expr) i64 :merge (max old new))
(rule ((= ?e (Num ?n))) ((set (lo ?e) ?n)))
(rule ((= ?e (Add ?a ?b)) (= ?la (lo ?a)) (= ?lb (lo ?b)))
      ((set (lo ?e) (+ ?la ?lb))))

; x/x => 1, but only when x is provably positive (hence nonzero)
(rule ((= ?e (Div ?x ?x)) (= ?l (lo ?x)) (>= ?l 1))
      ((union ?e (Num 1))))

(let safe   (Div (Add (Num 2) (Num 3)) (Add (Num 2) (Num 3))))
(let unsafe (Div (Var "v") (Var "v")))
(run 10)
(check (= safe (Num 1)))
`)
	holds, err := p.Check(mustParseFacts(t, `(= unsafe (Num 1))`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("guarded rewrite fired without a proven range")
	}
}

// TestPointsToStyleAnalysis reproduces the flavor of the egglog paper's
// points-to analysis over relations: allocation sites, assignments, and
// transitive propagation of may-point-to facts.
func TestPointsToStyleAnalysis(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, `
(sort Var)
(sort Obj)
(function V (String) Var)
(function O (String) Obj)
(relation alloc (Var Obj))     ; v = new O
(relation assign (Var Var))    ; v = w
(relation points-to (Var Obj))

(rule ((alloc ?v ?o)) ((points-to ?v ?o)))
(rule ((assign ?v ?w) (points-to ?w ?o)) ((points-to ?v ?o)))

(alloc (V "a") (O "heap1"))
(alloc (V "b") (O "heap2"))
(assign (V "c") (V "a"))
(assign (V "d") (V "c"))
(assign (V "d") (V "b"))
(run 10)
(check (points-to (V "c") (O "heap1")))
(check (points-to (V "d") (O "heap1")))
(check (points-to (V "d") (O "heap2")))
`)
	holds, err := p.Check(mustParseFacts(t, `(points-to (V "a") (O "heap2"))`))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("spurious points-to fact derived")
	}
}

// TestRunConfigDefaults checks (run N) runs Program.RunDefaults with only
// the iteration limit replaced, and a bare (run) takes that too.
func TestRunConfigDefaults(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Add ?x ?y) (Add ?y ?x))
(let e (Add (Num 1) (Num 2)))
`)
	p.RunDefaults = egraph.RunConfig{IterLimit: 1, Workers: 3, MatchShards: 5, RuleMetrics: true}
	mustExec(t, p, `(run 2)`)
	if rep := p.LastRun; rep.Iterations != 2 || rep.Workers != 3 || len(rep.Rules) == 0 {
		t.Errorf("(run 2): iterations %d, workers %d, %d rule rows; want 2, 3 (RunDefaults), rules on",
			rep.Iterations, rep.Workers, len(rep.Rules))
	}
	mustExec(t, p, `(run)`)
	if rep := p.LastRun; rep.Iterations != 1 {
		t.Errorf("(run): iterations = %d, want 1 (RunDefaults)", rep.Iterations)
	}
}

// liveCount counts live-sink deliveries.
type liveCount struct{ iters []int }

func (c *liveCount) LiveIter(iter int, _ *egraph.IterStats, _ []sched.RuleIterStats) {
	c.iters = append(c.iters, iter)
}

// TestRunHonorsLiveDefault: RunDefaults.Live reaches (run N) — one
// payload per iteration — exactly as it reaches run-schedule.
func TestRunHonorsLiveDefault(t *testing.T) {
	p := NewProgram()
	mustExec(t, p, exprPrelude+`
(rewrite (Add ?x ?y) (Add ?y ?x))
(rewrite (Add (Add ?x ?y) ?z) (Add ?x (Add ?y ?z)))
(let e (Add (Add (Add (Num 1) (Num 2)) (Num 3)) (Num 4)))
`)
	sink := &liveCount{}
	p.RunDefaults.Live = sink
	mustExec(t, p, `(run 2)`)
	if p.LastRun.Iterations != 2 || len(sink.iters) != 2 || sink.iters[0] != 1 || sink.iters[1] != 2 {
		t.Errorf("(run 2) ran %d iterations, live sink saw %v", p.LastRun.Iterations, sink.iters)
	}
}
