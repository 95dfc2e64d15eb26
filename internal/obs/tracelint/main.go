// Command tracelint validates observability artifacts in CI: a Chrome
// trace-event file (well-formed JSON, named events, monotonic complete
// events, balanced B/E pairs), a stats-JSON file (schema and cross-field
// invariants), and an e-graph event journal (known event kinds, iteration
// monotonicity, balanced rebuild markers, canonical union operands). Given
// a trace and a stats file of the same run, it also checks that the "rows"
// arguments of the worker-lane match spans sum to the stats report's
// rows_scanned. It exits non-zero with a diagnostic when any file is
// malformed, which is what `make trace-smoke` and `make debug-smoke` check.
//
// Usage:
//
//	tracelint -trace trace.json [-stats stats.json] [-journal run.jsonl]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dialegg/internal/egraph"
	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace-event file to validate")
	statsPath := flag.String("stats", "", "stats-JSON file to validate (egg-opt or egglog output)")
	journalPath := flag.String("journal", "", "e-graph event journal (JSONL) to validate")
	flag.Parse()

	if *tracePath == "" && *statsPath == "" && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "tracelint: nothing to do; pass -trace, -stats, and/or -journal")
		os.Exit(2)
	}
	if *tracePath != "" {
		spans, err := obs.ValidateTraceFile(*tracePath)
		fatalIf(err)
		fmt.Printf("trace OK: %s, %d spans\n", *tracePath, spans)
	}
	if *statsPath != "" {
		run, err := validateStats(*statsPath)
		fatalIf(err)
		fmt.Printf("stats OK: %s\n", *statsPath)
		if *tracePath != "" {
			fatalIf(crossCheckRows(*tracePath, run))
			fmt.Printf("trace/stats OK: match spans cover %d rows scanned\n", run.RowsScanned)
		}
	}
	if *journalPath != "" {
		n, err := journal.LintFile(*journalPath)
		fatalIf(err)
		fmt.Printf("journal OK: %s, %d events\n", *journalPath, n)
	}
}

// validateStats parses a stats-JSON file — either an egg-opt report
// (engine report nested under "run") or a bare egglog run report — and
// checks the cross-field invariants the engine guarantees.
func validateStats(path string) (egraph.RunReport, error) {
	var run egraph.RunReport
	data, err := os.ReadFile(path)
	if err != nil {
		return run, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return run, fmt.Errorf("stats: not valid JSON: %w", err)
	}
	runData := data
	if nested, ok := probe["run"]; ok {
		runData = nested
	}
	if err := json.Unmarshal(runData, &run); err != nil {
		return run, fmt.Errorf("stats: run report: %w", err)
	}
	if run.Iterations < 1 {
		return run, fmt.Errorf("stats: no iterations recorded")
	}
	if len(run.PerIter) != run.Iterations {
		return run, fmt.Errorf("stats: %d per-iteration records for %d iterations", len(run.PerIter), run.Iterations)
	}
	var iterRows int64
	for _, it := range run.PerIter {
		iterRows += it.RowsScanned
	}
	if iterRows != run.RowsScanned {
		return run, fmt.Errorf("stats: per-iteration rows %d != total rows scanned %d", iterRows, run.RowsScanned)
	}
	for _, r := range run.Rules {
		if r.Applied > r.Matched {
			return run, fmt.Errorf("stats: rule %s: applied %d > matched %d", r.Name, r.Applied, r.Matched)
		}
		if r.Noops > r.Applied {
			return run, fmt.Errorf("stats: rule %s: noops %d > applied %d", r.Name, r.Noops, r.Applied)
		}
	}
	if len(run.Rules) > 0 {
		var ruleRows int64
		for _, r := range run.Rules {
			ruleRows += r.RowsScanned
		}
		if ruleRows != run.RowsScanned {
			return run, fmt.Errorf("stats: per-rule rows %d != total rows scanned %d", ruleRows, run.RowsScanned)
		}
	}
	return run, nil
}

// crossCheckRows checks a trace against the stats report of the same run:
// every match task is one span on a worker lane carrying its row visits as
// the "rows" argument, so those arguments must sum to rows_scanned.
func crossCheckRows(tracePath string, run egraph.RunReport) error {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	var f struct {
		TraceEvents []struct {
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
			Args struct {
				Rows int64 `json:"rows"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var rows int64
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "match" && ev.TID >= obs.LaneWorker {
			rows += ev.Args.Rows
		}
	}
	if rows != run.RowsScanned {
		return fmt.Errorf("trace/stats: match spans scanned %d rows, stats report %d", rows, run.RowsScanned)
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracelint:", err)
		os.Exit(1)
	}
}
