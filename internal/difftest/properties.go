package difftest

import (
	"bytes"
	"fmt"

	"dialegg/internal/dialegg"
	"dialegg/internal/egraph"
	"dialegg/internal/memo"
	"dialegg/internal/mlir"
	"dialegg/internal/obs/journal"
	"dialegg/internal/sched"
)

// checkProperties runs the metamorphic side of the oracle. Unlike the
// differential side, these properties need no inputs: they assert
// structural invariants of the toolchain itself.
//
//   - print-roundtrip: PrintModuleCanonical is a fixed point of
//     parse-then-print, for both the original and the optimized module.
//   - idempotence: optimizing the optimized module again emits the same
//     canonical text — saturation has nothing left to say, so extraction
//     must re-pick the same program.
//   - journal-replay: a journaled optimization replays bit-identically
//     (snapshot byte-comparison at every recorded iteration).
//   - sched-agreement: the Simple rule scheduler reproduces the
//     unscheduled extraction exactly, and a saturated Backoff run
//     extracts the same program as the unscheduled run (scheduling only
//     changes how saturation proceeds, never where it lands).
//   - memo-determinism: the content-address of the module is stable and
//     two independent optimizations of the same input emit byte-identical
//     text — the property that makes serving cache hits sound.
func checkProperties(m, om *mlir.Module, origSrc, optSrc string, reg *mlir.Registry, opts Options) *Failure {
	fail := func(name, detail string) *Failure {
		return &Failure{Kind: "property:" + name, Detail: detail,
			Original: origSrc, Optimized: optSrc}
	}

	for _, p := range []struct{ label, src string }{{"original", origSrc}, {"optimized", optSrc}} {
		m2, err := mlir.ParseModule(p.src, reg)
		if err != nil {
			return fail("print-roundtrip", fmt.Sprintf("%s canonical text does not re-parse: %v", p.label, err))
		}
		if again := mlir.PrintModuleCanonical(m2, reg); again != p.src {
			return fail("print-roundtrip", fmt.Sprintf("%s: parse-print is not a fixed point:\n--- first\n%s\n--- second\n%s", p.label, p.src, again))
		}
	}

	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: opts.Rules, RunConfig: opts.RunConfig})
	om2 := om.Clone()
	if _, err := opt.OptimizeModule(om2); err != nil {
		return fail("idempotence", fmt.Sprintf("re-optimizing the optimized module failed: %v", err))
	}
	if twice := mlir.PrintModuleCanonical(om2, reg); twice != optSrc {
		return fail("idempotence", fmt.Sprintf("second optimization changed the program:\n--- once\n%s\n--- twice\n%s", optSrc, twice))
	}

	if f := checkJournalReplay(m, origSrc, optSrc, opts, fail); f != nil {
		return f
	}

	if f := checkSchedAgreement(m, optSrc, reg, opts, fail); f != nil {
		return f
	}

	canon, err := memo.CanonicalizeMLIR(origSrc)
	if err != nil {
		return fail("memo-determinism", fmt.Sprintf("canonicalize: %v", err))
	}
	k1 := memo.Key(canon, opts.Rules, opts.RunConfig)
	k2 := memo.Key(canon, opts.Rules, opts.RunConfig)
	if k1 != k2 {
		return fail("memo-determinism", fmt.Sprintf("content address is unstable: %s != %s", k1, k2))
	}
	om3 := m.Clone()
	opt2 := dialegg.NewOptimizer(dialegg.Options{RuleSources: opts.Rules, RunConfig: opts.RunConfig})
	if _, err := opt2.OptimizeModule(om3); err != nil {
		return fail("memo-determinism", fmt.Sprintf("repeat optimization failed: %v", err))
	}
	if rerun := mlir.PrintModuleCanonical(om3, reg); rerun != optSrc {
		return fail("memo-determinism", fmt.Sprintf("two optimizations of the same input disagree:\n--- first\n%s\n--- second\n%s", optSrc, rerun))
	}
	return nil
}

// checkSchedAgreement is the rule-scheduling metamorphic property: a
// scheduled run may change how saturation proceeds, never where it
// lands. Concretely: the Simple scheduler must reproduce the unscheduled
// extraction byte-for-byte unconditionally (it is the documented
// bit-identical default), and a throttling Backoff run that still
// reaches saturation must extract the same program too — both runs saw
// the full congruence closure, so extraction has the same choices.
// Backoff runs cut short by an iteration or node limit are exempt: a ban
// can legitimately push work past the horizon.
func checkSchedAgreement(m *mlir.Module, optSrc string, reg *mlir.Registry, opts Options, fail func(name, detail string) *Failure) *Failure {
	run := func(s sched.Scheduler) (string, *dialegg.Report, error) {
		cfg := opts.RunConfig
		cfg.Scheduler = s
		sm := m.Clone()
		opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: opts.Rules, RunConfig: cfg})
		rep, err := opt.OptimizeModule(sm)
		if err != nil {
			return "", nil, err
		}
		return mlir.PrintModuleCanonical(sm, reg), rep, nil
	}

	simpleSrc, _, err := run(sched.Simple{})
	if err != nil {
		return fail("sched-agreement", fmt.Sprintf("simple-scheduled optimization failed: %v", err))
	}
	if simpleSrc != optSrc {
		return fail("sched-agreement", fmt.Sprintf("Simple scheduler diverged from the unscheduled run:\n--- unscheduled\n%s\n--- simple\n%s", optSrc, simpleSrc))
	}

	backoffSrc, rep, err := run(sched.Backoff{Threshold: 8, Factor: 2, BanLength: 3})
	if err != nil {
		return fail("sched-agreement", fmt.Sprintf("backoff-scheduled optimization failed: %v", err))
	}
	if rep.Run.Stop == egraph.StopSaturated && backoffSrc != optSrc {
		return fail("sched-agreement", fmt.Sprintf("saturated backoff run extracted a different program:\n--- unscheduled\n%s\n--- backoff\n%s", optSrc, backoffSrc))
	}
	return nil
}

// checkJournalReplay re-optimizes with a journal attached (snapshot every
// iteration) and replays every graph segment with snapshot verification.
func checkJournalReplay(m *mlir.Module, origSrc, optSrc string, opts Options, fail func(name, detail string) *Failure) *Failure {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	cfg := opts.RunConfig
	cfg.SnapshotEvery = 1
	opt := dialegg.NewOptimizer(dialegg.Options{RuleSources: opts.Rules, RunConfig: cfg, Journal: w})
	jm := m.Clone()
	if _, err := opt.OptimizeModule(jm); err != nil {
		return fail("journal-replay", fmt.Sprintf("journaled optimization failed: %v", err))
	}
	if err := w.Flush(); err != nil {
		return fail("journal-replay", fmt.Sprintf("journal flush: %v", err))
	}
	events, err := journal.Read(&buf)
	if err != nil {
		return fail("journal-replay", fmt.Sprintf("journal read-back: %v", err))
	}
	if err := journal.Lint(events); err != nil {
		return fail("journal-replay", fmt.Sprintf("journal lint: %v", err))
	}
	graphs := 0
	for _, e := range events {
		if e.Kind == journal.KGraph {
			graphs++
		}
	}
	for g := 0; g < graphs; g++ {
		if _, _, err := egraph.Replay(events, egraph.ReplayOptions{ToIter: -1, Graph: g, Verify: true}); err != nil {
			return fail("journal-replay", fmt.Sprintf("graph %d does not replay: %v", g, err))
		}
	}
	return nil
}
