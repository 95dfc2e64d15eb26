package sched

import (
	"strings"
	"testing"
)

// TestBackoffBanSchedule walks the backoff state machine by hand: a rule
// that exceeds its threshold is banned for BanLength iterations, resumes
// with threshold and ban grown by Factor, and a rule under threshold is
// never throttled.
func TestBackoffBanSchedule(t *testing.T) {
	inst := Backoff{Threshold: 10, Factor: 2, BanLength: 3}.New()

	d := inst.RuleBudget("hot", 1)
	if d.Action != ActionLimit || d.Limit != 10 {
		t.Fatalf("iter 1: got %+v, want limit 10", d)
	}
	// Iteration 1 blows past the threshold: banned for iterations 2-4.
	inst.RecordIter(1, []RuleIterStats{
		{Rule: "hot", Matched: 25, Applied: 10, Limited: true},
		{Rule: "cold", Matched: 3, Applied: 3},
	})
	for iter := 2; iter <= 4; iter++ {
		if d := inst.RuleBudget("hot", iter); d.Action != ActionSkip {
			t.Fatalf("iter %d: hot got %+v, want skip", iter, d)
		}
		if d.Final {
			t.Fatalf("backoff bans must not be final")
		}
		if d := inst.RuleBudget("cold", iter); d.Action != ActionLimit || d.Limit != 10 {
			t.Fatalf("iter %d: cold got %+v, want limit 10", iter, d)
		}
	}
	// Resumes at iteration 5 with a doubled threshold.
	if d := inst.RuleBudget("hot", 5); d.Action != ActionLimit || d.Limit != 20 {
		t.Fatalf("iter 5: got %+v, want limit 20", d)
	}
	// Second ban is twice as long (iterations 6-11).
	inst.RecordIter(5, []RuleIterStats{{Rule: "hot", Matched: 21, Applied: 20, Limited: true}})
	for iter := 6; iter <= 11; iter++ {
		if d := inst.RuleBudget("hot", iter); d.Action != ActionSkip {
			t.Fatalf("iter %d: got %+v, want skip (second ban)", iter, d)
		}
	}
	if d := inst.RuleBudget("hot", 12); d.Action != ActionLimit || d.Limit != 40 {
		t.Fatalf("iter 12: got %+v, want limit 40", d)
	}
	// A skipped iteration's stats must not re-trigger the ban counters.
	inst.RecordIter(6, []RuleIterStats{{Rule: "hot", Skipped: true}})
	if d := inst.RuleBudget("hot", 12); d.Action != ActionLimit || d.Limit != 40 {
		t.Fatalf("skipped iteration changed state: %+v", d)
	}
}

// TestBackoffRuleOverrides checks per-rule starting parameters.
func TestBackoffRuleOverrides(t *testing.T) {
	b := Backoff{Threshold: 100, Rules: map[string]BackoffRule{"comm": {Threshold: 5, BanLength: 1}}}
	inst := b.New()
	if d := inst.RuleBudget("comm", 1); d.Limit != 5 {
		t.Fatalf("override threshold: got %+v", d)
	}
	if d := inst.RuleBudget("other", 1); d.Limit != 100 {
		t.Fatalf("default threshold: got %+v", d)
	}
	inst.RecordIter(1, []RuleIterStats{{Rule: "comm", Matched: 6}})
	if d := inst.RuleBudget("comm", 2); d.Action != ActionSkip {
		t.Fatalf("override ban: got %+v", d)
	}
	if d := inst.RuleBudget("comm", 3); d.Action != ActionLimit || d.Limit != 10 {
		t.Fatalf("override ban length 1 should lift at iter 3: got %+v", d)
	}
}

// TestMatchLimitWasteBan checks the probation window and the Final flag
// on waste bans.
func TestMatchLimitWasteBan(t *testing.T) {
	m := MatchLimit{Limit: 50, Waste: map[string]float64{"noise": 1.0}, Probation: 2}
	inst := m.New()
	for iter := 1; iter <= 2; iter++ {
		if d := inst.RuleBudget("noise", iter); d.Action != ActionLimit || d.Limit != 50 {
			t.Fatalf("probation iter %d: got %+v", iter, d)
		}
	}
	d := inst.RuleBudget("noise", 3)
	if d.Action != ActionSkip || !d.Final {
		t.Fatalf("post-probation: got %+v, want final skip", d)
	}
	if d := inst.RuleBudget("useful", 3); d.Action != ActionLimit || d.Limit != 50 {
		t.Fatalf("unwasted rule: got %+v", d)
	}
	// A negative per-rule override lifts the cap entirely.
	un := MatchLimit{Limit: 50, Rules: map[string]int{"big": -1}}.New()
	if d := un.RuleBudget("big", 1); d.Action != ActionRun {
		t.Fatalf("uncapped override: got %+v", d)
	}
}

// TestSimpleIsRun pins the default strategy to the unscheduled behavior.
func TestSimpleIsRun(t *testing.T) {
	inst := Simple{}.New()
	if d := inst.RuleBudget("any", 7); d != (Decision{}) {
		t.Fatalf("simple must always run: got %+v", d)
	}
	if got := (Simple{}).Fingerprint(); got != "simple" {
		t.Fatalf("fingerprint: %q", got)
	}
}

// TestParse covers the flag-spec grammar.
func TestParse(t *testing.T) {
	good := map[string]string{
		"simple":                         "simple",
		"backoff":                        "backoff:threshold=1000,factor=2,ban=5",
		"backoff:threshold=500":          "backoff:threshold=500,factor=2,ban=5",
		"backoff:threshold=64,ban=2":     "backoff:threshold=64,factor=2,ban=2",
		"matchlimit":                     "matchlimit:limit=1000,waste-threshold=0.999,probation=3",
		"matchlimit:200":                 "matchlimit:limit=200,waste-threshold=0.999,probation=3",
		"match-limit:limit=8":            "matchlimit:limit=8,waste-threshold=0.999,probation=3",
		"matchlimit:limit=8,probation=9": "matchlimit:limit=8,waste-threshold=0.999,probation=9",
	}
	for spec, want := range good {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := s.Fingerprint(); got != want {
			t.Errorf("Parse(%q).Fingerprint() = %q, want %q", spec, got, want)
		}
	}
	bad := []string{
		"frobnicate", "simple:x=1", "backoff:threshold=-1", "backoff:threshold",
		"backoff:bogus=2", "matchlimit:x", "matchlimit:limit=0",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

// TestFingerprintCanonical pins map-order independence: two equal
// strategies built with different map insertion orders share an identity,
// which is what makes the fingerprint safe inside cache keys.
func TestFingerprintCanonical(t *testing.T) {
	a := Backoff{Rules: map[string]BackoffRule{"a": {Threshold: 1}, "b": {Threshold: 2}, "c": {Threshold: 3}}}
	b := Backoff{Rules: map[string]BackoffRule{"c": {Threshold: 3}, "a": {Threshold: 1}, "b": {Threshold: 2}}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint depends on map order:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if !strings.Contains(a.Fingerprint(), "rule=a;1;0") {
		t.Fatalf("fingerprint missing overrides: %s", a.Fingerprint())
	}
}

// TestNewInstanceIsolated checks that New mints independent per-run
// state: a ban accumulated in one run must not leak into the next.
func TestNewInstanceIsolated(t *testing.T) {
	b := Backoff{Threshold: 10}
	first := b.New()
	first.RecordIter(1, []RuleIterStats{{Rule: "hot", Matched: 99}})
	if d := first.RuleBudget("hot", 2); d.Action != ActionSkip {
		t.Fatalf("first run should have banned: %+v", d)
	}
	second := b.New()
	if d := second.RuleBudget("hot", 2); d.Action != ActionLimit || d.Limit != 10 {
		t.Fatalf("state leaked across runs: %+v", d)
	}
}
