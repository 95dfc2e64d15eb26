package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dialegg/internal/dialects"
	"dialegg/internal/dialegg"
	"dialegg/internal/egglog"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/sexp"
)

// span is one timed call the benchmark makes into a module's public
// function. Spans of one function or request share an id; Parent indexes
// the enclosing span (-1 at a root). Allocs and Bytes cover the whole
// span, children included.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// tracer keeps spans in memory until the run ends. Allocation counts come
// from runtime.ReadMemStats, which is exact; it stops the world, which is
// part of what trace.overhead reports.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	ms    runtime.MemStats
	eng   engineCounts
}

// engineCounts sums the saturation engine's own counters over every
// function the traced pipeline optimized.
type engineCounts struct {
	funcs                  int
	match, apply, rebuild  time.Duration
	iterations, nodes      int64
	rowsScanned, termNodes int64
}

func newTracer() *tracer {
	// Room for every span of a typical run, so growing the slice does not
	// land allocations in a span.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18), open: make([]int, 0, 8)}
}

// begin opens a span nested in the innermost open one. The clock and the
// allocation counters are read after the bookkeeping, so neither counts
// the tracer's own work.
func (t *tracer) begin(name string, id int) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.Allocs, s.Bytes = t.ms.Mallocs, t.ms.TotalAlloc
	s.Start = int64(time.Since(t.epoch))
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = now
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
}

// layerTotal is one span name's self time and self allocations: the
// span's own figures minus those of its children.
type layerTotal struct {
	self   time.Duration
	allocs int64
}

// totals folds the spans into per-name self totals and returns the summed
// duration of the root spans, the denominator of every share.
func (t *tracer) totals() (map[string]*layerTotal, time.Duration) {
	out := map[string]*layerTotal{}
	childDur := make([]int64, len(t.spans))
	childAllocs := make([]int64, len(t.spans))
	var roots time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += int64(s.Allocs)
		} else {
			roots += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.self += time.Duration(s.End - s.Start - childDur[i])
		lt.allocs += int64(s.Allocs) - childAllocs[i]
	}
	return out, roots
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// optimizeTraced re-composes dialegg.Optimizer.OptimizeModuleCtx from the
// public calls it makes, with a span around each, so the trace times the
// same work the untraced run does. It returns the printed module, which
// must byte-equal the untraced output. Computing the report-only
// extraction costs is left out: it does not change the output.
func optimizeTraced(t *tracer, id int, src string, ruleSrcs []string, cfg egraph.RunConfig, canonical bool) (string, error) {
	reg := dialects.NewRegistry()
	t.begin("mlir.parse", id)
	m, err := mlir.ParseModule(src, reg)
	t.end()
	if err != nil {
		return "", &stageError{kindParse, err}
	}
	body := m.Body()
	for i, f := range body.Ops {
		if f.Name != "func.func" {
			continue
		}
		nf, err := optimizeFuncTraced(t, id, f, ruleSrcs, cfg)
		if err != nil {
			return "", &stageError{kindOptimizer, fmt.Errorf("@%s: %w", mlir.FuncName(f), err)}
		}
		nf.ParentBlock = body
		body.Ops[i] = nf
	}
	t.begin("mlir.print", id)
	var out string
	if canonical {
		out = mlir.PrintModuleCanonical(m, reg)
	} else {
		out = mlir.PrintModule(m, reg)
	}
	t.end()
	return out, nil
}

// optimizeFuncTraced mirrors dialegg.Optimizer.OptimizeFuncCtx.
func optimizeFuncTraced(t *tracer, id int, f *mlir.Operation, ruleSrcs []string, cfg egraph.RunConfig) (*mlir.Operation, error) {
	t.begin("egglog.rules", id)
	p := egglog.NewProgram()
	_, err := p.ExecuteString(dialegg.Prelude)
	for i := 0; err == nil && i < len(ruleSrcs); i++ {
		_, err = p.ExecuteString(ruleSrcs[i])
	}
	t.end()
	if err != nil {
		return nil, fmt.Errorf("loading rules: %w", err)
	}

	t.begin("dialegg.prepare", id)
	encs, err := dialegg.Prepare(p)
	t.end()
	if err != nil {
		return nil, err
	}

	t.begin("dialegg.to_egg", id)
	tr, err := dialegg.TranslateFuncWithCodecs(f, encs, nil)
	t.end()
	if err != nil {
		return nil, err
	}

	t.begin("egglog.load", id)
	_, err = p.Execute(tr.Lets)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("loading translated program: %w", err)
	}

	t.begin("egraph.saturate", id)
	run := p.RunRules(cfg)
	t.end()
	if run.Err != nil {
		return nil, fmt.Errorf("saturation: %w", run.Err)
	}
	if run.Stop == egraph.StopCanceled {
		return nil, fmt.Errorf("saturation canceled")
	}

	t.begin("egraph.extract", id)
	term, _, err := p.ExtractExpr(sexp.Symbol(tr.RootName))
	t.end()
	if err != nil {
		return nil, fmt.Errorf("extraction: %w", err)
	}

	t.begin("dialegg.from_egg", id)
	nf, err := dialegg.RebuildFuncWithCodecs(f, term, tr, encs, nil)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("back-translation: %w", err)
	}

	e := &t.eng
	e.funcs++
	e.match += run.MatchTime
	e.apply += run.ApplyTime
	e.rebuild += run.RebuildTime
	e.iterations += int64(run.Iterations)
	e.nodes += int64(run.Nodes)
	e.rowsScanned += run.RowsScanned
	e.termNodes += int64(termSize(term))
	return nf, nil
}

// termSize counts the distinct applications in an extracted term, equal
// subterms once, as the e-graph holds them.
func termSize(n *sexp.Node) int {
	ids := map[string]int{}
	var id func(n *sexp.Node) int
	id = func(n *sexp.Node) int {
		if n.Kind != sexp.KindList {
			return -1
		}
		var key strings.Builder
		for _, c := range n.List {
			if c.Kind == sexp.KindList {
				fmt.Fprintf(&key, "(%d)", id(c))
			} else {
				key.WriteString(c.String())
			}
			key.WriteByte(' ')
		}
		k := key.String()
		if i, ok := ids[k]; ok {
			return i
		}
		ids[k] = len(ids)
		return len(ids) - 1
	}
	id(n)
	return len(ids)
}
