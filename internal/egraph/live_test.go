package egraph

// Tests for the live feed (RunConfig.Live) and the per-iteration rule
// record every per-rule consumer shares: the telemetry substrate the
// serving layer's Prometheus gauges and engine health watchdog consume.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dialegg/internal/sched"
)

// captureSink records every LiveIter delivery.
type captureSink struct {
	iterNums []int
	iters    []IterStats
	rules    [][]sched.RuleIterStats
}

func (c *captureSink) LiveIter(iter int, it *IterStats, rules []sched.RuleIterStats) {
	c.iterNums = append(c.iterNums, iter)
	c.iters = append(c.iters, *it)
	// The runner reuses the rules buffer; copy per the interface contract.
	c.rules = append(c.rules, append([]sched.RuleIterStats(nil), rules...))
}

// TestLiveSinkMatchesReport: the live feed delivers one payload per
// iteration, in order, and its gauges agree with the final RunReport —
// the live view is the report, earlier.
func TestLiveSinkMatchesReport(t *testing.T) {
	l := newExprLangQuiet()
	g := l.g
	prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
	for i := 1; i < 40; i++ {
		leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
		prev, _ = g.Insert(l.Add, prev, leaf)
	}
	sink := &captureSink{}
	rep := g.Run([]*Rule{commRule(l.Add)}, RunConfig{IterLimit: 4, NodeLimit: 50_000, Workers: 2, Live: sink})

	if len(sink.iters) != rep.Iterations {
		t.Fatalf("live feed delivered %d payloads for %d iterations", len(sink.iters), rep.Iterations)
	}
	for i, st := range sink.iters {
		if sink.iterNums[i] != i+1 {
			t.Errorf("payload %d: iter = %d, want %d", i, sink.iterNums[i], i+1)
		}
		it := rep.PerIter[i]
		if st.Nodes != it.Nodes || st.Matches != it.Matches || st.DeltaRows != it.DeltaRows {
			t.Errorf("payload %d: nodes/matches/delta = %d/%d/%d, report says %d/%d/%d",
				i, st.Nodes, st.Matches, st.DeltaRows, it.Nodes, it.Matches, it.DeltaRows)
		}
		if st.Classes <= 0 || st.LiveRows <= 0 {
			t.Errorf("payload %d: classes %d / live rows %d not populated", i, st.Classes, st.LiveRows)
		}
	}
	// Final payload sizes the finished graph.
	last := sink.iters[len(sink.iters)-1]
	if last.Nodes != rep.Nodes {
		t.Errorf("last live nodes = %d, report nodes = %d", last.Nodes, rep.Nodes)
	}
	// Per-rule deltas: every payload names the comm rule with matched >=
	// applied > 0 until saturation.
	for i, rules := range sink.rules[:len(sink.rules)-1] {
		if len(rules) != 1 || rules[0].Rule != "comm-Add" {
			t.Fatalf("payload %d rules = %+v", i, rules)
		}
		if rules[0].Applied <= 0 || rules[0].Matched < rules[0].Applied {
			t.Errorf("payload %d: matched/applied = %d/%d", i, rules[0].Matched, rules[0].Applied)
		}
	}
}

// TestLiveSinkDoesNotChangeResult: a run with a live sink attached is
// bit-identical to one without — the telemetry feed only observes.
func TestLiveSinkDoesNotChangeResult(t *testing.T) {
	build := func() (*exprLang, []*Rule) {
		l := newExprLangQuiet()
		g := l.g
		prev, _ := g.Insert(l.Num, I64Value(g.I64, 0))
		for i := 1; i < 60; i++ {
			leaf, _ := g.Insert(l.Num, I64Value(g.I64, int64(i)))
			prev, _ = g.Insert(l.Add, prev, leaf)
		}
		return l, []*Rule{commRule(l.Add)}
	}
	l1, rules1 := build()
	plain := l1.g.Run(rules1, RunConfig{IterLimit: 3, NodeLimit: 50_000, Workers: 2})
	l2, rules2 := build()
	observed := l2.g.Run(rules2, RunConfig{IterLimit: 3, NodeLimit: 50_000, Workers: 2, Live: &captureSink{}})

	if plain.Iterations != observed.Iterations || plain.Nodes != observed.Nodes ||
		plain.Classes != observed.Classes || plain.Stop != observed.Stop {
		t.Fatalf("observed run diverged: %+v vs %+v", observed, plain)
	}
	b1, _ := json.Marshal(l1.g.Snapshot(0))
	b2, _ := json.Marshal(l2.g.Snapshot(0))
	if !bytes.Equal(b1, b2) {
		t.Fatal("live-observed run produced a different e-graph snapshot")
	}
}

// recordingScheduler wraps a strategy and keeps a copy of every record its
// instances receive through RecordIter.
type recordingScheduler struct {
	sched.Scheduler
	got *[][]sched.RuleIterStats
}

func (r recordingScheduler) New() sched.Instance {
	return recordingInstance{r.Scheduler.New(), r.got}
}

type recordingInstance struct {
	sched.Instance
	got *[][]sched.RuleIterStats
}

func (r recordingInstance) RecordIter(iter int, stats []sched.RuleIterStats) {
	*r.got = append(*r.got, append([]sched.RuleIterStats(nil), stats...))
	r.Instance.RecordIter(iter, stats)
}

// TestOneRuleRecord: a scheduled run with a live sink and rule metrics
// hands every per-rule consumer the same record. The sink's payload is
// what the scheduler received, its iteration stats are the report's, the
// records sum to RunReport.Rules, and each IterStats.Sched entry is one
// skipped or capped rule of its iteration's record — at any worker count.
func TestOneRuleRecord(t *testing.T) {
	for _, workers := range []int{1, 4} {
		l := newExprLangQuiet()
		addChain(t, l, 24)
		rules := []*Rule{commRule(l.Add), assocRule(l.Add)}
		var recorded [][]sched.RuleIterStats
		sink := &captureSink{}
		rep := l.g.Run(rules, RunConfig{
			IterLimit:   10,
			NodeLimit:   50_000,
			Workers:     workers,
			RuleMetrics: true,
			Live:        sink,
			Scheduler:   recordingScheduler{sched.Backoff{Threshold: 8, Factor: 2, BanLength: 2}, &recorded},
		})
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if len(recorded) != rep.Iterations || !reflect.DeepEqual(sink.rules, recorded) {
			t.Fatalf("workers=%d: live payload differs from the scheduler's record:\n live  %+v\n sched %+v", workers, sink.rules, recorded)
		}
		if !reflect.DeepEqual(sink.iters, rep.PerIter) {
			t.Errorf("workers=%d: live iteration stats differ from RunReport.PerIter", workers)
		}
		sum := make([]RuleStats, len(rules))
		var skips, limits int
		for i, record := range recorded {
			var interventions []sched.RuleIterStats
			for j, r := range record {
				if r.Rule != rules[j].Name {
					t.Fatalf("iter %d: record %d names %q, want %q", i+1, j, r.Rule, rules[j].Name)
				}
				sum[j].Matched += r.Matched
				sum[j].Applied += r.Applied
				switch {
				case r.Skipped:
					sum[j].Throttled++
					interventions = append(interventions, r)
				case r.Limited:
					sum[j].MatchLimited++
					interventions = append(interventions, r)
				}
			}
			decisions := rep.PerIter[i].Sched
			if len(decisions) != len(interventions) {
				t.Fatalf("iter %d: %d Sched entries for record interventions %+v", i+1, len(decisions), interventions)
			}
			for k, d := range decisions {
				r := interventions[k]
				switch {
				case d.Rule != r.Rule:
					t.Errorf("iter %d: Sched entry %+v for record %+v", i+1, d, r)
				case d.Action == "skip" && r.Skipped:
					skips++
				case d.Action == "limit" && r.Limited && d.Dropped == r.Matched-r.Applied:
					limits++
				default:
					t.Errorf("iter %d: Sched entry %+v disagrees with record %+v", i+1, d, r)
				}
			}
		}
		if skips == 0 || limits == 0 {
			t.Fatalf("workers=%d: backoff never tripped (%d skips, %d limits)", workers, skips, limits)
		}
		for j, rs := range rep.Rules {
			if rs.Matched != sum[j].Matched || rs.Applied != sum[j].Applied ||
				rs.Throttled+rs.Banned != sum[j].Throttled || rs.MatchLimited != sum[j].MatchLimited {
				t.Errorf("workers=%d: rule %s totals %+v, records sum to %+v", workers, rs.Name, rs, sum[j])
			}
		}
	}
}
