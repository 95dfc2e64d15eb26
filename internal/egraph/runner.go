package egraph

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dialegg/internal/obs"
	"dialegg/internal/obs/journal"
	"dialegg/internal/sched"
)

// RunConfig bounds a saturation run. Zero fields get defaults.
type RunConfig struct {
	// Ctx, when non-nil, makes the run cancelable: the iteration loop
	// checks it alongside NodeLimit/TimeLimit, and the match phase
	// abandons queued tasks once it is done, so a run stops within one
	// match task of cancellation rather than at the next wall-clock
	// check. A canceled run reports StopCanceled; the e-graph is left
	// clean (canceled runs stop at an iteration boundary or skip the
	// apply phase entirely, never mid-apply). A nil Ctx means the run
	// cannot be canceled (context.Background semantics).
	Ctx context.Context
	// IterLimit caps saturation iterations (default 30).
	IterLimit int
	// NodeLimit stops the run when the e-graph exceeds this many e-nodes
	// (default 100_000).
	NodeLimit int
	// MatchLimit caps matches collected per rule per iteration
	// (default 500_000).
	MatchLimit int
	// TimeLimit stops the run after this wall-clock duration
	// (default 30s).
	TimeLimit time.Duration
	// Workers bounds the match-phase worker pool (default GOMAXPROCS;
	// 1 runs the match phase serially). The applied rewrites are
	// identical for every worker count: matches are merged back in
	// rule-declaration order before the serial apply phase.
	Workers int
	// MatchShards caps how many shards a rule's top-level scan is split
	// into (default Workers). Sharding finer than the worker count
	// improves load balance; the merged match order is unchanged by
	// either knob.
	MatchShards int
	// RuleMetrics enables per-rule accounting (RunReport.Rules) and the
	// expensive per-iteration gauges (Classes, LiveRows/DeadRows, Finds).
	// Off — the default — none of these are computed, keeping the
	// saturation loop's per-iteration cost flat.
	RuleMetrics bool
	// Recorder, when non-nil, receives structured trace spans: one per
	// iteration and per phase on the engine lane, and one per match task
	// on its worker's lane. The spans render as Chrome trace-event JSON
	// via the recorder's WriteTrace; each match span carries the task's
	// row count as its "rows" argument. A nil Recorder records nothing and
	// costs nothing.
	Recorder *obs.Recorder
	// Live, when non-nil, receives each iteration's IterStats and per-rule
	// record while the run is in progress — the feed the serving layer
	// exports as live Prometheus gauges and the engine health watchdog
	// watches for saturation explosions. Unlike RuleMetrics it does not
	// enable the union-find Find counter or per-match no-op accounting, so
	// its per-iteration cost is one class count plus one row census. A nil
	// Live costs one pointer check per iteration and changes nothing.
	Live LiveSink
	// SnapshotEvery, when > 0 and the graph has a journal attached, embeds
	// a full state snapshot (EGraph.Snapshot) into the journal after every
	// N-th iteration's rebuild. Snapshots are what `egg-debug replay
	// -verify` byte-compares against and what the snapshot differ consumes.
	SnapshotEvery int
	// ProfileSample, when > 0, enables sampled premise-selectivity
	// collection (RunReport.Selectivity): every N-th top-level row of each
	// rule's match scan opens a traced sub-tree in which per-premise
	// execution/visit/match and access-path counters are recorded. 1
	// traces every top-level row (full profiling); 0 — the default —
	// collects nothing and costs one pointer check per premise entry.
	// Sampling is keyed to global row indices, never to shard boundaries,
	// so the counters are byte-identical for every Workers/MatchShards
	// setting; like the other observability knobs it changes no engine
	// behavior and is excluded from result cache keys.
	ProfileSample int
	// Scheduler, when non-nil, throttles rules adaptively: before each
	// match phase the runner asks the strategy for every rule's budget
	// (run, skip, or a per-iteration match cap) and reports the merged
	// per-rule outcome back after the iteration. Decisions are computed in
	// the runner's serial section from merged, worker-count-independent
	// statistics, so a scheduled run is byte-identical for every
	// Workers/MatchShards setting and in both match modes. A skipped rule
	// contributes no match tasks; a capped rule keeps the deterministic
	// prefix of its merged match list (the cap is enforced after merging,
	// never per task). Because skips and caps drop delta matches that
	// semi-naive mode would otherwise never revisit, the runner re-matches
	// such a rule against the full database the next time it runs.
	// Scheduler-imposed truncation does not stop the run (unlike
	// MatchLimit), and saturation is only declared on a no-growth
	// iteration whose skips are all final — a temporarily banned rule
	// keeps the run alive until its ban expires, exactly like egg's
	// BackoffScheduler. Nil (or sched.Simple) behaves bit-identically to
	// the unscheduled engine. A scheduler changes results, so it is part
	// of the memo cache key (via Fingerprint), unlike the observability
	// knobs.
	Scheduler sched.Scheduler
	// Naive disables semi-naive delta matching, re-matching every rule
	// against the entire database each iteration. Semi-naive mode (the
	// default) matches only against rows inserted or re-canonicalized
	// since the previous iteration from iteration 2 onward; it applies
	// exactly the matches that are new, in the same relative order, so
	// the resulting e-graph is identical. Two caveats: MergeOverwrite
	// tables, whose last-writer-wins outputs can depend on naive mode's
	// redundant re-applications, and runs stopped by MatchLimit, where
	// each mode truncates a different prefix of the per-rule match list
	// (naive counts already-seen matches toward the cap). Within either
	// mode, results stay identical for every worker count.
	Naive bool
}

// WithDefaults returns the config with every zero field replaced by its
// engine default. Exported so layers that key on a config (the memo
// cache) hash the values the engine will actually run with, making
// explicit-default and zero-field configs cache-equivalent.
func (c RunConfig) WithDefaults() RunConfig { return c.withDefaults() }

func (c RunConfig) withDefaults() RunConfig {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.IterLimit == 0 {
		c.IterLimit = 30
	}
	if c.NodeLimit == 0 {
		c.NodeLimit = 100_000
	}
	if c.MatchLimit == 0 {
		c.MatchLimit = 500_000
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MatchShards <= 0 {
		c.MatchShards = c.Workers
	}
	return c
}

// StopReason explains why a saturation run ended.
type StopReason string

// Stop reasons.
const (
	StopSaturated  StopReason = "saturated"
	StopIterLimit  StopReason = "iteration limit"
	StopNodeLimit  StopReason = "node limit"
	StopTimeLimit  StopReason = "time limit"
	StopRuleError  StopReason = "rule error"
	StopMatchLimit StopReason = "match limit"
	StopCanceled   StopReason = "canceled"
)

// RunReport summarizes a saturation run. Duration fields marshal as
// nanoseconds (Go's time.Duration JSON encoding); the `_ns` name suffix
// records that in the stats-JSON schema.
type RunReport struct {
	Iterations int           `json:"iterations"`
	Stop       StopReason    `json:"stop"`
	Nodes      int           `json:"nodes"`
	Classes    int           `json:"classes"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	// Workers is the match-phase worker count the run used.
	Workers int `json:"workers"`
	// MatchTime, ApplyTime, and RebuildTime total the three phases across
	// all iterations (MatchTime is wall time of the parallel phase, not
	// the sum over workers).
	MatchTime   time.Duration `json:"match_ns"`
	ApplyTime   time.Duration `json:"apply_ns"`
	RebuildTime time.Duration `json:"rebuild_ns"`
	// RowsScanned totals the match phase's row visits (scan loop
	// iterations plus direct lookups) across all iterations — the
	// quantity semi-naive matching shrinks.
	RowsScanned int64 `json:"rows_scanned"`
	// PerIter records per-iteration statistics for scalability studies.
	PerIter []IterStats `json:"per_iter,omitempty"`
	// Rules holds per-rule metrics in rule-declaration order when
	// RunConfig.RuleMetrics was set.
	Rules []RuleStats `json:"rules,omitempty"`
	// Selectivity holds per-rule sampled premise statistics in
	// rule-declaration order when RunConfig.ProfileSample was set.
	Selectivity []RuleSelectivity `json:"selectivity,omitempty"`
	// Err holds the first rule error, if Stop == StopRuleError.
	Err error `json:"-"`
}

// IterStats records one saturation iteration.
type IterStats struct {
	// Matches is the number of matches applied this iteration.
	Matches int `json:"matches"`
	// Nodes is the e-node count after the iteration's rebuild.
	Nodes int `json:"nodes"`
	// Classes is the e-class count after the rebuild. Computing it walks
	// every constructor row, so it is only populated (non-zero) when
	// RunConfig.RuleMetrics or RunConfig.Live is set.
	Classes int `json:"classes,omitempty"`
	// Unions counts effective unions performed by applies and rebuild;
	// RebuildUnions is the rebuild-only share (congruence repairs).
	Unions        uint64 `json:"unions"`
	RebuildUnions uint64 `json:"rebuild_unions"`
	// MatchTime, ApplyTime, RebuildTime split the iteration's phases.
	MatchTime   time.Duration `json:"match_ns"`
	ApplyTime   time.Duration `json:"apply_ns"`
	RebuildTime time.Duration `json:"rebuild_ns"`
	// RebuildPasses is how many passes Rebuild needed to restore
	// congruence (repair rounds).
	RebuildPasses int `json:"rebuild_passes"`
	// RowsScanned counts the iteration's match-phase row visits (scan
	// loop iterations plus direct lookups) summed over all tasks (each
	// task's share is the "rows" argument of its Recorder match span).
	RowsScanned int64 `json:"rows_scanned"`
	// DeltaRows is the size of the iteration's delta frontier: the live
	// rows inserted or re-canonicalized during the previous iteration,
	// which is all semi-naive matching scans at the top level.
	DeltaRows int `json:"delta_rows"`
	// SemiNaive reports whether this iteration matched delta-restricted
	// sub-queries (false for naive mode and for every run's first
	// iteration, which must match the full database).
	SemiNaive bool `json:"semi_naive"`
	// LiveRows and DeadRows census the database tables after the
	// iteration's rebuild (dead rows await compaction). Populated only
	// when RunConfig.RuleMetrics or RunConfig.Live is set.
	LiveRows int `json:"live_rows,omitempty"`
	DeadRows int `json:"dead_rows,omitempty"`
	// Finds counts union-find Find calls during the iteration (match
	// canonicalization plus rebuild repair). Populated only when
	// RunConfig.RuleMetrics is set.
	Finds uint64 `json:"finds,omitempty"`
	// Sched records the scheduler's effective interventions this
	// iteration: one entry per skipped rule and per rule whose matches a
	// scheduler cap actually truncated. Uncapped runs and caps that never
	// bound are not recorded (they are the common case and carry no
	// information). Empty without a scheduler.
	Sched []SchedDecision `json:"sched,omitempty"`
}

// SchedDecision is one scheduler intervention in one iteration, as
// surfaced in IterStats: which rule, what happened ("skip" or "limit"),
// and what it cost.
type SchedDecision struct {
	Rule string `json:"rule"`
	// Action is "skip" or "limit".
	Action string `json:"action"`
	// Limit is the match cap for "limit" entries.
	Limit int `json:"limit,omitempty"`
	// Dropped counts matches discarded by the cap (found minus applied).
	Dropped int64 `json:"dropped,omitempty"`
	// Final marks a permanent skip (the strategy will never run the rule
	// again), which is what lets the runner still declare saturation.
	Final bool `json:"final,omitempty"`
}

// Saturated reports whether the run reached a fixed point.
func (r RunReport) Saturated() bool { return r.Stop == StopSaturated }

// LiveSink receives each iteration's statistics while a saturation run
// is still going, which is what makes saturation explosions observable
// before the final RunReport exists. LiveIter is called from the runner's
// serial section after each iteration's rebuild with the 1-based
// iteration number, the iteration's IterStats (Classes, LiveRows and
// DeadRows populated), and its per-rule record in rule-declaration order
// (per-iteration deltas, not run totals — sinks that export monotonic
// counters just add them). Both are valid only for the duration of the
// call and must not be modified; implementations must not call back into
// the e-graph.
type LiveSink interface {
	LiveIter(iter int, it *IterStats, rules []sched.RuleIterStats)
}

// ruleMatches holds one rule's merged match buffer for the apply phase.
type ruleMatches struct {
	rule      *Rule
	matches   [][]Value
	truncated bool
	// schedTruncated reports that a scheduler cap (not the engine
	// MatchLimit) truncated the merged list. Unlike truncated it does not
	// stop the run.
	schedTruncated bool
	// found is the rule's pre-truncation match count this iteration.
	found int64
}

// schedSkip reports whether the iteration's scheduler decisions exclude
// rule ri from the match plan (nil decisions mean every rule runs).
func schedSkip(decisions []sched.Decision, ri int) bool {
	return decisions != nil && decisions[ri].Action == sched.ActionSkip
}

// matchTask is one unit of match-phase work: one shard of one sub-query
// of one rule. sub < 0 is the full (naive) query sharded over the leading
// premise's table scan; sub >= 0 is the semi-naive sub-query with table
// ordinal `sub` delta-restricted, sharded over that table's frontier.
// Shards partition the scan into contiguous ascending ranges, so
// concatenating a sub-query's shard buffers in shard order yields its
// serial match sequence.
type matchTask struct {
	ruleIdx int
	sub     int
	lo, hi  int
	buf     [][]Value
	keys    [][]int32
	scanned int64
	err     error
	// sel holds the task's sampled selectivity counters when
	// RunConfig.ProfileSample is set; task-private until the phase
	// barrier, folded serially afterwards (summation is commutative, so
	// the aggregate is independent of worker scheduling).
	sel *selSink
	// began/took/worker time the task and name its worker's trace lane.
	// They live here — goroutine-private until the phase barrier — so
	// observability adds no shared-state traffic to the hot path; the
	// runner reads them serially after the pool drains.
	began  time.Time
	took   time.Duration
	worker int
}

// shardMinRows is the smallest top-level scan worth splitting across
// workers; below it the coordination overhead dominates.
const shardMinRows = 64

// shardRange appends tasks covering [0, n) in at most maxShards
// contiguous pieces (one whole-range task when n is small). worth is the
// useful-row count the split is judged on — live rows rather than the
// raw scan length, so a table dominated by tombstones is not over-split.
func shardRange(tasks []matchTask, ruleIdx, sub, n, worth, maxShards int) []matchTask {
	shards := 1
	if maxShards > 1 && worth >= shardMinRows {
		shards = maxShards
		if shards > n {
			shards = n
		}
	}
	if shards <= 1 {
		return append(tasks, matchTask{ruleIdx: ruleIdx, sub: sub, lo: 0, hi: -1})
	}
	for s := 0; s < shards; s++ {
		lo := n * s / shards
		hi := n * (s + 1) / shards
		tasks = append(tasks, matchTask{ruleIdx: ruleIdx, sub: sub, lo: lo, hi: hi})
	}
	return tasks
}

// planMatchTasks splits each rule's full query into at most `maxShards`
// shards of its top-level scan. Rules whose first premise does not scan
// (or scans few live rows) get a single whole-range task; rules the
// scheduler skipped get none.
func (g *EGraph) planMatchTasks(rules []*Rule, maxShards int, decisions []sched.Decision) []matchTask {
	tasks := make([]matchTask, 0, len(rules))
	for ri, r := range rules {
		if schedSkip(decisions, ri) {
			continue
		}
		n, live := g.firstPremiseScan(r)
		tasks = shardRange(tasks, ri, -1, n, live, maxShards)
	}
	return tasks
}

// planDeltaTasks emits the semi-naive plan: for each rule with k table
// premises, one sharded sub-query per ordinal whose table has a non-empty
// frontier. Rules whose premise tables all went untouched last iteration
// contribute no tasks at all — the saturated fringe of a run costs
// nothing, which is the point of semi-naive evaluation.
//
// The plan is hybrid: when a rule's summed frontiers are so large relative
// to its leading table scan that the k delta sub-queries would visit more
// rows than one full pass (each frontier row probes the other k-1
// premises, so the delta plan costs about Σ|frontier| × k), the rule falls
// back to its full query for this iteration. The re-found old matches it
// applies are guaranteed no-ops under the apply phase's frozen
// canonicalization, so the fallback changes which rows are visited but not
// a single bit of the result.
// Scheduling adds two cases: a skipped rule contributes no tasks, and a
// rule carrying full-scan debt (needFull — it was skipped or truncated
// since its last complete pass, so delta frontiers it never saw are gone)
// runs its full query regardless of the frontier state. Re-found old
// matches are no-ops, so the forced full pass restores completeness
// without changing a bit of the already-derived state.
func (g *EGraph) planDeltaTasks(rules []*Rule, maxShards int, decisions []sched.Decision, needFull []bool) []matchTask {
	var tasks []matchTask
	for ri, r := range rules {
		if schedSkip(decisions, ri) {
			continue
		}
		if needFull != nil && needFull[ri] {
			n, live := g.firstPremiseScan(r)
			tasks = shardRange(tasks, ri, -1, n, live, maxShards)
			continue
		}
		tp := tablePremises(r)
		outer := 0
		for _, pi := range tp {
			outer += len(r.Premises[pi].(*TablePremise).Fn.table.frontier)
		}
		if outer == 0 {
			continue
		}
		if n, live := g.firstPremiseScan(r); n > 0 && outer*len(tp) >= n+live {
			tasks = shardRange(tasks, ri, -1, n, live, maxShards)
			continue
		}
		for s, pi := range tp {
			fr := len(r.Premises[pi].(*TablePremise).Fn.table.frontier)
			if fr == 0 {
				continue
			}
			tasks = shardRange(tasks, ri, s, fr, fr, maxShards)
		}
	}
	return tasks
}

// keyLess is the lexicographic order on equal-length match keys; it is
// the serial full-match enumeration order.
func keyLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// collectMatches runs the match phase: every task e-matches against the
// frozen (rebuilt, canonical) graph on a pool of `workers` goroutines,
// each filling a private buffer. Buffers are then merged in
// rule-declaration order, truncated to matchLimit per rule, so the result
// is independent of worker count and scheduling. Within a rule, naive
// shards concatenate in shard order; semi-naive sub-query buffers are
// sorted by match key, which restores the exact relative order a naive
// match would enumerate those (new) matches in. Matching only reads the
// graph: pool interning, union-find path halving, and lazy index builds
// are internally synchronized.
//
// The returned tasks carry per-task timings, row counts, and worker ids
// when any consumer wants them (RuleMetrics or an enabled Recorder); the
// runner aggregates them serially after the phase.
// Scheduler decisions and full-scan debt (both nil for unscheduled runs)
// shape the plan — skipped rules get no tasks, indebted rules full-scan —
// and scheduler caps truncate the merged per-rule lists. Caps are applied
// only after the deterministic merge (never to per-task buffers), so the
// kept prefix is the same for every worker count and shard plan.
func (g *EGraph) collectMatches(rules []*Rule, cfg RunConfig, delta bool, minStamp uint64, decisions []sched.Decision, needFull []bool) ([]ruleMatches, []matchTask, int64, error) {
	workers, matchLimit := cfg.Workers, cfg.MatchLimit
	var tasks []matchTask
	if delta {
		tasks = g.planDeltaTasks(rules, cfg.MatchShards, decisions, needFull)
	} else {
		tasks = g.planMatchTasks(rules, cfg.MatchShards, decisions)
	}
	timeTasks := cfg.RuleMetrics || cfg.Recorder.Enabled()

	runTask := func(worker, i int) {
		t := &tasks[i]
		t.worker = worker
		// A canceled run abandons queued tasks: the runner discards the
		// phase's matches anyway (it checks Ctx before applying), so
		// skipping bounds cancellation latency at one task, not one
		// iteration. Completed runs never skip — ctx errors are sticky —
		// so determinism for uncanceled runs is unaffected.
		if cfg.Ctx.Err() != nil {
			return
		}
		if timeTasks {
			t.began = time.Now()
		}
		r := rules[t.ruleIdx]
		spec := matchSpec{deltaOrd: t.sub, minStamp: minStamp}
		if cfg.ProfileSample > 0 {
			t.sel = newSelSink(r, cfg.ProfileSample)
			spec.sel = t.sel
		}
		t.scanned, t.err = g.matchShard(r, spec, t.lo, t.hi, func(binds []Value, key []int32) bool {
			t.buf = append(t.buf, binds)
			if t.sub >= 0 {
				t.keys = append(t.keys, append([]int32(nil), key...))
			}
			return len(t.buf) < matchLimit
		})
		if timeTasks {
			t.took = time.Since(t.began)
		}
	}

	if workers <= 1 {
		for i := range tasks {
			runTask(0, i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range idx {
					runTask(w, i)
				}
			}(w)
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Merge: declaration order across rules; within a rule, shard-order
	// concatenation (naive) or key sort (semi-naive sub-queries, whose
	// keys are unique — each new match is generated by exactly one
	// sub-query, the one whose delta ordinal is its first delta premise).
	merged := make([]ruleMatches, len(rules))
	for i, r := range rules {
		merged[i].rule = r
	}
	var scanned int64
	keys := make([][][]int32, len(rules))
	for i := range tasks {
		t := &tasks[i]
		if t.err != nil {
			return nil, nil, 0, fmt.Errorf("matching rule %s: %w", rules[t.ruleIdx].Name, t.err)
		}
		scanned += t.scanned
		rm := &merged[t.ruleIdx]
		rm.found += int64(len(t.buf))
		if len(rm.matches) == 0 {
			rm.matches = t.buf
			keys[t.ruleIdx] = t.keys
		} else {
			rm.matches = append(rm.matches, t.buf...)
			keys[t.ruleIdx] = append(keys[t.ruleIdx], t.keys...)
		}
	}
	for i := range merged {
		rm := &merged[i]
		// Key-sort only the rules the delta plan ran as sub-queries; a
		// rule the hybrid planner fell back to full matching for has no
		// keys and is already in shard (= serial full-match) order.
		if delta && keys[i] != nil && len(rm.matches) > 1 {
			k := keys[i]
			ord := make([]int, len(rm.matches))
			for j := range ord {
				ord[j] = j
			}
			sort.Slice(ord, func(a, b int) bool { return keyLess(k[ord[a]], k[ord[b]]) })
			sorted := make([][]Value, len(rm.matches))
			for j, o := range ord {
				sorted[j] = rm.matches[o]
			}
			rm.matches = sorted
		}
		if len(rm.matches) >= matchLimit {
			rm.matches = rm.matches[:matchLimit]
			rm.truncated = true
		}
		// Scheduler cap: keep the deterministic prefix of the merged
		// list. Enforced after the engine MatchLimit so a run that would
		// have hit the engine cap unscheduled still stops with
		// StopMatchLimit; scheduler truncation itself never stops the run.
		if decisions != nil && decisions[i].Action == sched.ActionLimit {
			if lim := decisions[i].Limit; lim > 0 && len(rm.matches) > lim {
				rm.matches = rm.matches[:lim]
				rm.schedTruncated = true
			}
		}
	}
	return merged, tasks, scanned, nil
}

// rowCensus counts live and dead (tombstoned, awaiting compaction) rows
// across all tables. O(#functions); used by the RuleMetrics and Live
// gauges.
func (g *EGraph) rowCensus() (live, dead int) {
	for _, f := range g.funcs {
		live += f.table.live
		dead += len(f.table.rows) - f.table.live
	}
	return live, dead
}

// Run saturates the e-graph under the given rules: each iteration
// e-matches all rules against the current graph across a worker pool,
// merges the match buffers deterministically, applies every match's
// actions serially, then rebuilds congruence. The run stops at a fixed
// point (no new unions and no new nodes) or when a limit is hit.
//
// From the second iteration on (unless cfg.Naive is set) the match phase
// is semi-naive: it runs delta-restricted sub-queries that enumerate
// exactly the matches involving at least one row changed by the previous
// iteration. Matches over unchanged rows were already applied and
// re-applying them is a no-op (unions of already-equal classes, inserts
// of existing rows, idempotent merges), so the e-graph evolves
// identically — only the redundant work is skipped. Every run's first
// iteration matches the full database: mutations between runs carry no
// frontier, so the full match re-establishes the baseline the deltas are
// relative to.
//
// Observability is additive and, when off, free: cfg.RuleMetrics turns on
// per-rule accounting (RunReport.Rules) plus the expensive per-iteration
// gauges, cfg.Live streams each iteration as it finishes, and cfg.Recorder
// collects trace spans. Every per-rule consumer (the scheduler, the live
// sink, and RunReport.Rules) reads one per-iteration record. None of them
// changes which matches are found or applied.
func (g *EGraph) Run(rules []*Rule, cfg RunConfig) RunReport {
	cfg = cfg.withDefaults()
	start := time.Now()
	report := RunReport{Stop: StopIterLimit, Workers: cfg.Workers}
	rec := cfg.Recorder
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KRun, Workers: cfg.Workers})
	}

	var selAgg []RuleSelectivity
	if cfg.ProfileSample > 0 {
		selAgg = make([]RuleSelectivity, len(rules))
		for i, r := range rules {
			selAgg[i] = newRuleSelectivity(r, cfg.ProfileSample)
		}
	}
	// Scheduler state: one fresh Instance per run (strategies are
	// reusable; instances are not), the per-iteration decision vector, and
	// the full-scan debt ledger. All of it lives in the serial section; the
	// match workers only ever see the finished decisions.
	var schedInst sched.Instance
	var decisions []sched.Decision
	var needFull []bool
	if cfg.Scheduler != nil {
		schedInst = cfg.Scheduler.New()
		decisions = make([]sched.Decision, len(rules))
		needFull = make([]bool, len(rules))
	}
	// ruleIter is the iteration's per-rule record (matched, applied,
	// skipped, capped), rebuilt every iteration and read by every per-rule
	// consumer: the scheduler, the live sink, and the RuleMetrics totals.
	// Runs with none of them never build it.
	var ruleIter []sched.RuleIterStats
	if schedInst != nil || cfg.Live != nil || cfg.RuleMetrics {
		ruleIter = make([]sched.RuleIterStats, len(rules))
		for i, r := range rules {
			ruleIter[i].Rule = r.Name
		}
	}
	var rstats []RuleStats
	if cfg.RuleMetrics {
		rstats = make([]RuleStats, len(rules))
		for i, r := range rules {
			rstats[i].Name = r.Name
		}
		// The Find counter is toggled here, in the serial prologue, so the
		// match phase's concurrent Finds all observe counting == true (the
		// worker goroutine spawns give the happens-before edge).
		g.uf.SetCounting(true)
		defer g.uf.SetCounting(false)
	}
	if rec.Enabled() {
		rec.SetLaneName(obs.LaneEngine, "engine")
		for w := 0; w < cfg.Workers; w++ {
			rec.SetLaneName(obs.LaneWorker+w, fmt.Sprintf("match worker %d", w))
		}
		defer func() {
			rec.Complete(obs.LaneEngine, "phase", "run", start, report.Elapsed, map[string]int64{
				"iterations": int64(report.Iterations),
				"nodes":      int64(report.Nodes),
				"rows":       report.RowsScanned,
			})
		}()
	}

	for iter := 0; iter < cfg.IterLimit; iter++ {
		if cfg.Ctx.Err() != nil {
			report.Stop = StopCanceled
			break
		}
		if time.Since(start) > cfg.TimeLimit {
			report.Stop = StopTimeLimit
			break
		}
		iterStart := time.Now()
		// The graph-lifetime iteration counter stamps row provenance and
		// union justifications; the journal's iter event marks the boundary
		// replay stops at for --to-iter.
		g.iterCur++
		if g.journal != nil {
			g.jEmit(journal.Event{Kind: journal.KIter})
		}
		// Matching relies on canonical rows (for safe concurrent reads and
		// the per-argument indexes); restore congruence if a caller left
		// the graph dirty. This is also what makes the match-phase reads a
		// consistent snapshot: no union or insert happens between here and
		// the end of the match phase.
		if !g.Clean() {
			g.Rebuild()
		}
		// Close the epoch: rows touched since the previous iteration's
		// match phase become the delta frontier this iteration scans.
		deltaRows, minStamp := g.advanceFrontier()
		useDelta := !cfg.Naive && iter > 0
		unionsBefore := g.unionCount
		rowsBefore := g.TotalRows()
		findsBefore := g.uf.Finds()
		var it IterStats
		it.DeltaRows = deltaRows
		it.SemiNaive = useDelta
		// Scheduler decisions for the iteration, computed serially before
		// any worker starts from the iteration number and the merged
		// per-rule records of earlier iterations — never from wall time or
		// goroutine order, which is the determinism contract.
		if schedInst != nil {
			for i, r := range rules {
				decisions[i] = schedInst.RuleBudget(r.Name, iter+1)
			}
		}

		// Phase 1: match all rules against the frozen view on the pool.
		startMatch := time.Now()
		pending, tasks, scanned, err := g.collectMatches(rules, cfg, useDelta, minStamp, decisions, needFull)
		it.MatchTime = time.Since(startMatch)
		it.RowsScanned = scanned
		report.RowsScanned += scanned
		report.MatchTime += it.MatchTime
		if cfg.ProfileSample > 0 {
			// Fold task sinks serially, in plan order. Summation is
			// commutative, so the aggregate depends only on which rows were
			// sampled — a function of global row indices, not of sharding.
			for i := range tasks {
				t := &tasks[i]
				if t.sel == nil {
					continue
				}
				agg := &selAgg[t.ruleIdx]
				agg.SampledRoots += t.sel.roots
				for j := range t.sel.prem {
					agg.Premises[j].add(t.sel.prem[j])
				}
			}
		}
		if cfg.RuleMetrics {
			for i := range tasks {
				t := &tasks[i]
				rs := &rstats[t.ruleIdx]
				rs.RowsScanned += t.scanned
				rs.MatchTime += t.took
				// Count each (rule, sub-query) plan once, on its first
				// shard: sub >= 0 is a delta-restricted sub-query, sub < 0
				// a full scan (naive iterations and hybrid fallbacks).
				if t.lo == 0 {
					if t.sub >= 0 {
						rs.DeltaQueries++
					} else {
						rs.FullScans++
					}
				}
			}
		}
		if rec.Enabled() {
			for i := range tasks {
				t := &tasks[i]
				rec.Complete(obs.LaneWorker+t.worker, "match", rules[t.ruleIdx].Name, t.began, t.took, map[string]int64{
					"rows":    t.scanned,
					"matches": int64(len(t.buf)),
					"sub":     int64(t.sub),
				})
			}
			rec.Complete(obs.LaneEngine, "phase", "match", startMatch, it.MatchTime, map[string]int64{
				"rows":  scanned,
				"tasks": int64(len(tasks)),
			})
		}
		// A rule error stops the run, and so does a cancellation during the
		// match phase: it may have skipped tasks, so the merged buffers can
		// be incomplete, and applying them would make the result depend on
		// cancellation timing. The phase is discarded; the graph is still
		// clean (matching only reads).
		if err != nil || cfg.Ctx.Err() != nil {
			report.Stop, report.Err = StopCanceled, err
			if err != nil {
				report.Stop = StopRuleError
			}
			report.PerIter = append(report.PerIter, it)
			break
		}
		truncated := false
		for _, rm := range pending {
			truncated = truncated || rm.truncated
		}

		// Phase 2: apply serially, in merged (deterministic) order.
		startApply := time.Now()
		applied, err := g.applyMatches(pending, rstats)
		if err != nil {
			report.Stop, report.Err = StopRuleError, err
			report.PerIter = append(report.PerIter, it)
			break
		}
		it.ApplyTime = time.Since(startApply)
		report.ApplyTime += it.ApplyTime

		// Phase 3: restore congruence.
		startRebuild := time.Now()
		rebuildUnionsBefore := g.unionCount
		it.RebuildPasses = g.Rebuild()
		it.RebuildUnions = g.unionCount - rebuildUnionsBefore
		it.RebuildTime = time.Since(startRebuild)
		report.RebuildTime += it.RebuildTime
		// The graph is clean (just rebuilt), so the snapshot captures the
		// exact state replay reaches when it stops after this iteration.
		if g.journal != nil && cfg.SnapshotEvery > 0 && (iter+1)%cfg.SnapshotEvery == 0 {
			if b, err := json.Marshal(g.Snapshot(int(g.iterCur))); err == nil {
				g.jEmit(journal.Event{Kind: journal.KSnapshot, Snapshot: b})
			}
		}

		report.Iterations = iter + 1
		nodesAfter := g.NumNodes()
		it.Matches = applied
		it.Nodes = nodesAfter
		it.Unions = g.unionCount - unionsBefore
		if cfg.RuleMetrics || cfg.Live != nil {
			it.Classes = g.NumClasses()
			it.LiveRows, it.DeadRows = g.rowCensus()
		}
		if cfg.RuleMetrics {
			it.Finds = g.uf.Finds() - findsBefore
		}
		// Fill the iteration's per-rule record, then hand it to each
		// consumer. For the scheduler that closes its loop: interventions
		// are surfaced in IterStats, skipped and truncated rules take on
		// full-scan debt, and the strategy sees the record. schedActive
		// marks a non-final intervention — while one exists, a no-growth
		// iteration must not be read as saturation, because an expiring ban
		// can still wake the run up.
		for i := range ruleIter {
			rm, ri := &pending[i], &ruleIter[i]
			ri.Matched, ri.Applied = rm.found, int64(len(rm.matches))
			ri.Skipped, ri.Limited = schedSkip(decisions, i), rm.schedTruncated
		}
		schedActive := false
		if schedInst != nil {
			for i, ri := range ruleIter {
				d := decisions[i]
				switch {
				case ri.Skipped:
					schedActive = schedActive || !d.Final
					it.Sched = append(it.Sched, SchedDecision{Rule: ri.Rule, Action: "skip", Final: d.Final})
				case ri.Limited:
					schedActive = true
					it.Sched = append(it.Sched, SchedDecision{Rule: ri.Rule, Action: "limit", Limit: d.Limit, Dropped: ri.Matched - ri.Applied})
				}
				needFull[i] = ri.Skipped || ri.Limited
			}
			schedInst.RecordIter(iter+1, ruleIter)
		}
		for i := range rstats {
			rs, ri := &rstats[i], &ruleIter[i]
			rs.Matched += ri.Matched
			rs.Applied += ri.Applied
			switch {
			case ri.Skipped && decisions[i].Final:
				rs.Banned++
			case ri.Skipped:
				rs.Throttled++
			case ri.Limited:
				rs.MatchLimited++
				rs.SchedDropped += ri.Matched - ri.Applied
			}
		}
		report.PerIter = append(report.PerIter, it)
		if cfg.Live != nil {
			cfg.Live.LiveIter(iter+1, &report.PerIter[len(report.PerIter)-1], ruleIter)
		}
		if rec.Enabled() {
			rec.Complete(obs.LaneEngine, "phase", "apply", startApply, it.ApplyTime, map[string]int64{
				"matches": int64(applied),
			})
			rec.Complete(obs.LaneEngine, "phase", "rebuild", startRebuild, it.RebuildTime, map[string]int64{
				"passes": int64(it.RebuildPasses),
				"unions": int64(it.RebuildUnions),
			})
			rec.Complete(obs.LaneEngine, "iter", fmt.Sprintf("iteration %d", iter+1), iterStart, time.Since(iterStart), map[string]int64{
				"matches":    int64(applied),
				"nodes":      int64(nodesAfter),
				"delta_rows": int64(deltaRows),
				"unions":     int64(it.Unions),
			})
		}

		if truncated {
			report.Stop = StopMatchLimit
			break
		}
		// Saturation needs an honest fixpoint: no growth AND no live
		// scheduler intervention. A no-growth iteration with a temporary
		// ban or a binding cap is a fixpoint of the throttled system only —
		// derivable facts remain, and an expiring ban can still produce
		// them — so the run keeps iterating (cheaply: saturated fringes
		// plan no tasks) until the scheduler goes quiet or a limit lands.
		// Final skips are exempt: a permanently banned rule never comes
		// back, so it cannot justify keeping the run alive.
		if g.unionCount == unionsBefore && g.TotalRows() == rowsBefore && !schedActive {
			report.Stop = StopSaturated
			break
		}
		if nodesAfter > cfg.NodeLimit {
			report.Stop = StopNodeLimit
			break
		}
	}
	report.Rules = rstats
	report.Selectivity = selAgg
	report.Nodes = g.NumNodes()
	report.Classes = g.NumClasses()
	report.Elapsed = time.Since(start)
	if g.journal != nil {
		g.jEmit(journal.Event{Kind: journal.KRunEnd, Name: string(report.Stop)})
	}
	return report
}

// applyMatches runs the apply phase: every merged match's actions,
// serially and in merged (deterministic) order, so unions, inserts, and
// proof recording need no locking. The apply runs under the frozen
// iteration-start canonicalization (beginFrozenApply), so each match's
// effect depends only on the snapshot it was collected against —
// re-applying an old match is then a guaranteed no-op, which is what lets
// semi-naive mode skip old matches without changing a single bit of the
// result. rstats (nil unless RunConfig.RuleMetrics) accumulates the
// per-rule apply costs. It returns the number of matches applied.
func (g *EGraph) applyMatches(pending []ruleMatches, rstats []RuleStats) (int, error) {
	applied := 0
	g.beginFrozenApply()
	defer g.endFrozenApply()
	for ri := range pending {
		rm := &pending[ri]
		if len(rm.matches) == 0 {
			continue
		}
		// Provenance context: rows and unions made while applying this
		// batch are stamped with the rule (endFrozenApply clears it).
		g.ruleCur = g.ruleID(rm.rule.Name)
		if g.journal != nil {
			g.jEmit(journal.Event{Kind: journal.KFire, Name: rm.rule.Name, Matches: len(rm.matches)})
		}
		var rs *RuleStats
		var ruleStart time.Time
		var ruleRowsBefore int
		var ruleUnionsBefore uint64
		if rstats != nil {
			rs = &rstats[ri]
			ruleStart, ruleRowsBefore, ruleUnionsBefore = time.Now(), g.TotalRows(), g.unionCount
		}
		for _, binds := range rm.matches {
			// A match whose actions moved neither the union counter nor
			// the effect counter (new rows, merge changes, cost installs)
			// changed nothing — the per-rule no-op count is what makes
			// naive mode's redundant re-matching visible in --stats.
			var before uint64
			if rs != nil {
				before = g.unionCount + g.effects
			}
			if err := g.ApplyActions(rm.rule, binds); err != nil {
				return applied, fmt.Errorf("applying rule %s: %w", rm.rule.Name, err)
			}
			applied++
			if rs != nil && g.unionCount+g.effects == before {
				rs.Noops++
			}
		}
		if rs != nil {
			rs.ApplyTime += time.Since(ruleStart)
			// Growth attribution: rows and unions the batch produced,
			// measured over the serial apply of this rule's matches — the
			// live-run counterpart of the journal's per-row provenance.
			// Rebuild's congruence unions are deliberately excluded; they
			// belong to no single rule.
			rs.RowsCreated += int64(g.TotalRows() - ruleRowsBefore)
			rs.UnionsMade += g.unionCount - ruleUnionsBefore
		}
	}
	return applied, nil
}
