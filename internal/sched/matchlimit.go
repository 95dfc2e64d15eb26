package sched

import (
	"fmt"
	"sort"
	"strings"
)

// MatchLimit defaults.
const (
	DefaultMatchLimit     = 1000
	DefaultWasteThreshold = 0.999
	DefaultProbation      = 3
)

// MatchLimit is the cost-aware pruning strategy: every rule's applied
// matches are capped per iteration, and rules a prior profile's blame
// analysis marked as (almost) pure waste — rows created but never on an
// extraction path — are permanently banned once a probation window has
// passed. The waste map comes from a dialegg-profile artifact's blame
// section; the probation window lets a waste-marked rule still seed the
// early iterations, where its rows may enable other rules, before the ban
// lands.
type MatchLimit struct {
	// Limit caps each rule's applied matches per iteration
	// (default DefaultMatchLimit).
	Limit int
	// Rules holds per-rule cap overrides (0 inherits Limit; negative
	// means uncapped).
	Rules map[string]int
	// Waste maps rule name → blame waste ratio in [0,1] (the fraction of
	// the rule's created rows that fed no extraction). Rules at or above
	// WasteThreshold are banned after Probation iterations.
	Waste map[string]float64
	// WasteThreshold is the ban cutoff (default DefaultWasteThreshold —
	// effectively "100% waste" against blame's finite ratios).
	WasteThreshold float64
	// Probation is how many iterations a waste-marked rule still runs
	// before its ban (default DefaultProbation).
	Probation int
}

// withDefaults returns the strategy with zero fields filled in.
func (m MatchLimit) withDefaults() MatchLimit {
	if m.Limit <= 0 {
		m.Limit = DefaultMatchLimit
	}
	if m.WasteThreshold <= 0 {
		m.WasteThreshold = DefaultWasteThreshold
	}
	if m.Probation <= 0 {
		m.Probation = DefaultProbation
	}
	return m
}

// New implements Scheduler.
func (m MatchLimit) New() Instance { return matchLimitInstance{cfg: m.withDefaults()} }

// Fingerprint implements Scheduler: canonical spec string with sorted
// override and waste entries.
func (m MatchLimit) Fingerprint() string {
	c := m.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "matchlimit:limit=%d,waste-threshold=%g,probation=%d", c.Limit, c.WasteThreshold, c.Probation)
	names := make([]string, 0, len(c.Rules))
	for n := range c.Rules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, ",rule=%s;%d", n, c.Rules[n])
	}
	names = names[:0]
	for n := range c.Waste {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, ",waste=%s;%g", n, c.Waste[n])
	}
	return sb.String()
}

// matchLimitInstance is stateless: every decision is a pure function of
// (rule, iter) and the immutable config.
type matchLimitInstance struct {
	cfg MatchLimit
}

// RuleBudget implements Instance.
func (m matchLimitInstance) RuleBudget(rule string, iter int) Decision {
	if w, ok := m.cfg.Waste[rule]; ok && w >= m.cfg.WasteThreshold && iter > m.cfg.Probation {
		// The ban never lifts: decisions for this rule are final from
		// here on, so the runner may still declare saturation.
		return Decision{Action: ActionSkip, Final: true}
	}
	limit := m.cfg.Limit
	if o, ok := m.cfg.Rules[rule]; ok && o != 0 {
		limit = o
	}
	if limit < 0 {
		return Decision{}
	}
	return Decision{Action: ActionLimit, Limit: limit}
}

// RecordIter implements Instance (MatchLimit keeps no iteration state).
func (matchLimitInstance) RecordIter(int, []RuleIterStats) {}
