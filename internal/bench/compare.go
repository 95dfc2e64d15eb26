package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// CompareRow is one benchmark's delta between two bench2 measurements
// (the perf-regression observatory's unit of comparison). The gated
// quantities are the deterministic ones — row visits and iteration
// counts, which depend only on the workload and match mode — so the gate
// is reproducible; wall times are reported for context but never gated,
// because they move with the machine.
type CompareRow struct {
	Benchmark string `json:"benchmark"`
	// OldRows/NewRows are the semi-naive total row visits; OldTail/NewTail
	// the visits from iteration 2 on (the part semi-naive matching owns).
	OldRows int64 `json:"old_rows"`
	NewRows int64 `json:"new_rows"`
	OldTail int64 `json:"old_tail"`
	NewTail int64 `json:"new_tail"`
	// RowsDelta and TailDelta are fractional changes (+0.10 = 10% more
	// scanned rows than the baseline).
	RowsDelta float64 `json:"rows_delta"`
	TailDelta float64 `json:"tail_delta"`
	// OldIters/NewIters gate saturation shape: an iteration-count change
	// means the run converged differently, which is never noise.
	OldIters int `json:"old_iters"`
	NewIters int `json:"new_iters"`
	// OldSchedRows/NewSchedRows gate the scheduled (reference-backoff)
	// run's row visits; OldThrottled/NewThrottled and
	// OldLimited/NewLimited its deterministic intervention counts.
	OldSchedRows int64 `json:"old_sched_rows,omitempty"`
	NewSchedRows int64 `json:"new_sched_rows,omitempty"`
	OldThrottled int64 `json:"old_throttled,omitempty"`
	NewThrottled int64 `json:"new_throttled,omitempty"`
	OldLimited   int64 `json:"old_limited,omitempty"`
	NewLimited   int64 `json:"new_limited,omitempty"`
	// SchedDelta is the fractional scheduled-rows change.
	SchedDelta float64 `json:"sched_delta,omitempty"`
	// OldMatchMS/NewMatchMS are the semi-naive match wall times (context
	// only; not gated).
	OldMatchMS float64 `json:"old_match_ms"`
	NewMatchMS float64 `json:"new_match_ms"`
}

// ReadBench2JSON reads a bench2 measurement artifact (the committed
// BENCH_4.json baseline or a fresh `benchtab -bench2` bench2_fresh.json).
func ReadBench2JSON(path string) ([]Bench2Row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []Bench2Row
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: %s: no benchmark rows", path)
	}
	return rows, nil
}

// delta returns (new-old)/old, treating an empty baseline as zero change
// unless the new value is nonzero (then it is an unbounded regression).
func delta(oldV, newV int64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(newV-oldV) / float64(oldV)
}

// CompareBench2 joins two measurements by benchmark name and flags
// regressions: a deterministic counter (semi-naive row visits, total or
// tail) growing beyond tolerance, an iteration-count change, or a
// benchmark disappearing from the new measurement. New benchmarks are
// reported but never regressions.
func CompareBench2(oldRows, newRows []Bench2Row, tolerance float64) ([]CompareRow, []string) {
	newBy := make(map[string]Bench2Row, len(newRows))
	for _, r := range newRows {
		newBy[r.Benchmark] = r
	}
	var out []CompareRow
	var regressions []string
	seen := make(map[string]bool, len(oldRows))
	for _, o := range oldRows {
		seen[o.Benchmark] = true
		n, ok := newBy[o.Benchmark]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from new measurement", o.Benchmark))
			continue
		}
		row := CompareRow{
			Benchmark:  o.Benchmark,
			OldRows:    o.SemiNaive.RowsScanned,
			NewRows:    n.SemiNaive.RowsScanned,
			OldTail:    o.SemiNaive.RowsScannedTail,
			NewTail:    n.SemiNaive.RowsScannedTail,
			OldIters:   o.SemiNaive.Iterations,
			NewIters:   n.SemiNaive.Iterations,
			OldMatchMS: o.SemiNaive.MatchMS,
			NewMatchMS: n.SemiNaive.MatchMS,
		}
		row.OldSchedRows = o.Sched.RowsScanned
		row.NewSchedRows = n.Sched.RowsScanned
		row.OldThrottled = o.Sched.Throttled
		row.NewThrottled = n.Sched.Throttled
		row.OldLimited = o.Sched.Limited
		row.NewLimited = n.Sched.Limited
		row.SchedDelta = delta(row.OldSchedRows, row.NewSchedRows)
		if row.SchedDelta > tolerance {
			regressions = append(regressions, fmt.Sprintf("%s: scheduled rows scanned %d -> %d (%+.1f%% > %.1f%% tolerance)",
				o.Benchmark, row.OldSchedRows, row.NewSchedRows, 100*row.SchedDelta, 100*tolerance))
		}
		if row.OldThrottled != row.NewThrottled {
			regressions = append(regressions, fmt.Sprintf("%s: scheduler throttle count %d -> %d (backoff behavior changed)",
				o.Benchmark, row.OldThrottled, row.NewThrottled))
		}
		if row.OldLimited != row.NewLimited {
			regressions = append(regressions, fmt.Sprintf("%s: scheduler cap count %d -> %d (truncation behavior changed)",
				o.Benchmark, row.OldLimited, row.NewLimited))
		}
		row.RowsDelta = delta(row.OldRows, row.NewRows)
		row.TailDelta = delta(row.OldTail, row.NewTail)
		out = append(out, row)
		if row.RowsDelta > tolerance {
			regressions = append(regressions, fmt.Sprintf("%s: semi-naive rows scanned %d -> %d (%+.1f%% > %.1f%% tolerance)",
				o.Benchmark, row.OldRows, row.NewRows, 100*row.RowsDelta, 100*tolerance))
		}
		if row.TailDelta > tolerance {
			regressions = append(regressions, fmt.Sprintf("%s: semi-naive tail rows %d -> %d (%+.1f%% > %.1f%% tolerance)",
				o.Benchmark, row.OldTail, row.NewTail, 100*row.TailDelta, 100*tolerance))
		}
		if row.OldIters != row.NewIters {
			regressions = append(regressions, fmt.Sprintf("%s: iterations %d -> %d (saturation shape changed)",
				o.Benchmark, row.OldIters, row.NewIters))
		}
	}
	for _, n := range newRows {
		if !seen[n.Benchmark] {
			out = append(out, CompareRow{
				Benchmark: n.Benchmark,
				NewRows:   n.SemiNaive.RowsScanned,
				NewTail:   n.SemiNaive.RowsScannedTail,
				NewIters:  n.SemiNaive.Iterations,
			})
		}
	}
	return out, regressions
}

// FormatCompare renders the delta table. Times are labeled noisy because
// they are: the gate reads only the deterministic columns.
func FormatCompare(rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %8s | %10s %10s %8s | %5s %5s | %10s %10s %8s %5s | %9s %9s\n",
		"benchmark", "rows(old)", "rows(new)", "delta",
		"tail(old)", "tail(new)", "delta", "it(o)", "it(n)",
		"sched(old)", "sched(new)", "delta", "thr",
		"ms(old)", "ms(new)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %7.1f%% | %10d %10d %7.1f%% | %5d %5d | %10d %10d %7.1f%% %5d | %9.2f %9.2f\n",
			r.Benchmark, r.OldRows, r.NewRows, 100*r.RowsDelta,
			r.OldTail, r.NewTail, 100*r.TailDelta,
			r.OldIters, r.NewIters,
			r.OldSchedRows, r.NewSchedRows, 100*r.SchedDelta, r.NewThrottled,
			r.OldMatchMS, r.NewMatchMS)
	}
	b.WriteString("(rows/tail/iterations/sched/throttles are deterministic and gated; match ms is machine noise, shown for context)\n")
	return b.String()
}
