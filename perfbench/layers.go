package main

import (
	_ "embed"
	"encoding/json"
	"strings"
	"time"
)

// layersJSON is the per-layer design record; the traced pass prints
// exactly its metrics.
//
//go:embed layers.json
var layersJSON []byte

// perLayer lists the per-layer metrics in the record's order.
var perLayer = loadPerLayer()

func loadPerLayer() []metricDef {
	var doc struct {
		Rows []struct {
			Metrics []metricDef `json:"metrics"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		panic("perfbench: layers.json: " + err.Error())
	}
	var defs []metricDef
	for _, r := range doc.Rows {
		defs = append(defs, r.Metrics...)
	}
	return defs
}

// timedCalls are the span names that report X_ms, X_allocs and X_share.
func timedCalls() []string {
	var out []string
	for _, d := range perLayer {
		if x, ok := strings.CutSuffix(d.Name, "_allocs"); ok {
			out = append(out, x)
		}
	}
	return out
}

// layerMetrics turns a traced pass into per-layer metrics. units is the
// number of functions (paper, nmm) or requests (serve) traced. Metrics of
// layers the workload does not pass through read 0; the caller fills the
// interpreter and server rows it measured.
func layerMetrics(t *tracer, units int64, overhead float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	totals, traced := t.totals()
	n := float64(units)
	for _, x := range timedCalls() {
		lt := totals[x]
		if lt == nil {
			continue
		}
		out[x+"_ms"] = ms(lt.self) / n
		out[x+"_allocs"] = float64(lt.allocs) / n
		out[x+"_share"] = float64(lt.self) / float64(traced)
	}
	if e := t.eng; e.funcs > 0 {
		f := float64(e.funcs)
		out["egraph.match_ms"] = ms(e.match) / f
		out["egraph.apply_ms"] = ms(e.apply) / f
		out["egraph.rebuild_ms"] = ms(e.rebuild) / f
		out["egraph.iterations"] = float64(e.iterations) / f
		out["egraph.nodes"] = float64(e.nodes) / f
		out["egraph.rows_scanned"] = float64(e.rowsScanned) / f
		out["egraph.extracted_share"] = float64(e.termNodes) / float64(e.nodes)
	}
	out["serve.overhead_ms"] = hitOverhead(t)
	out["trace.overhead"] = overhead
	return out
}

// hitOverhead is the mean latency of a cache hit minus the mean time the
// hit's canonicalization and keying take when replayed: what HTTP, JSON,
// the cache lookup and the handler add. It is 0 when nothing was served.
func hitOverhead(t *tracer) float64 {
	hits := map[int]bool{}
	var hitTime time.Duration
	for _, s := range t.spans {
		if s.Name == "serve.hit" {
			hits[s.ID] = true
			hitTime += time.Duration(s.End - s.Start)
		}
	}
	if len(hits) == 0 {
		return 0
	}
	var keying time.Duration
	for _, s := range t.spans {
		if hits[s.ID] && s.Parent < 0 && (s.Name == "memo.canon" || s.Name == "memo.key") {
			keying += time.Duration(s.End - s.Start)
		}
	}
	return ms(hitTime-keying) / float64(len(hits))
}
