package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// historyEntry is one run's line in history.jsonl.
type historyEntry struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  int                `json:"seconds"`
	Time     string             `json:"time"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func historyPath(dir string) string { return filepath.Join(dir, "history.jsonl") }

// appendHistory records the run so the steadiness report covers it.
func appendHistory(o options, res *result) error {
	e := historyEntry{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Time: time.Now().UTC().Format(time.RFC3339), Correct: res.Correct,
		Metrics: map[string]float64{},
	}
	for name, m := range res.Metrics {
		e.Metrics[name] = m.Value
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath(o.out), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints, for every workload (or only the named one) and
// mode, each metric's median and quartiles over the recorded runs, and
// the quartile distance as a share of the median: the spread the
// benchmark's bounds are judged against.
func printReport(w io.Writer, dir, workload string) error {
	f, err := os.Open(historyPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(w, "no runs recorded yet")
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	type group struct {
		runs   int
		seeds  map[int64]bool
		values map[string][]float64
	}
	groups := map[string]*group{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e historyEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("%s: %w", historyPath(dir), err)
		}
		if workload != "" && e.Workload != workload {
			continue
		}
		k := fmt.Sprintf("%s trace=%v seconds=%d", e.Workload, e.Trace, e.Seconds)
		g := groups[k]
		if g == nil {
			g = &group{seeds: map[int64]bool{}, values: map[string][]float64{}}
			groups[k] = g
		}
		g.runs++
		g.seeds[e.Seed] = true
		for name, v := range e.Metrics {
			g.values[name] = append(g.values[name], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(w, "%s: %d runs, %d seeds\n", k, g.runs, len(g.seeds))
		fmt.Fprintf(w, "  %-30s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "iqr/med")
		names := make([]string, 0, len(g.values))
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, med, q3 := quartiles(g.values[n])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(w, "  %-30s %14.6g %14.6g %14.6g %8.2f%%\n", n, q1, med, q3, 100*spread)
		}
	}
	return nil
}
