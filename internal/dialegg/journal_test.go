package dialegg

// End-to-end time-travel test: egg-opt's pipeline with --journal,
// --snapshot-every, and --explain-extraction, driven as a library. The
// journal must lint, replay bit-identically with snapshot verification,
// and the extraction report must name the creating rule for the rewritten
// operation.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"dialegg/internal/dialects"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
	"dialegg/internal/obs/journal"
	"dialegg/internal/rules"
)

func TestJournalEndToEnd(t *testing.T) {
	src, err := os.ReadFile("testdata/div_pow2.mlir")
	if err != nil {
		t.Fatal(err)
	}
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(string(src), reg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	opt := NewOptimizer(Options{
		RuleSources:       rules.ImgConv(),
		RunConfig:         egraph.RunConfig{SnapshotEvery: 1},
		Journal:           jw,
		ExplainExtraction: true,
	})
	rep, err := opt.OptimizeModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	// The rewritten divsi's extraction report names the creating rule.
	if len(rep.ExtractionReports) == 0 {
		t.Fatal("no extraction reports for a module with a rewritten op")
	}
	report := strings.Join(rep.ExtractionReports, "\n")
	if !strings.Contains(report, "introduced by rule div-pow2-to-shift") {
		t.Errorf("extraction report does not name the creating rule:\n%s", report)
	}
	if !strings.Contains(report, "arith.divsi rewritten to arith.shrsi") {
		t.Errorf("extraction report does not head with the rewritten op:\n%s", report)
	}

	// The journal lints and replays bit-identically, including every
	// embedded per-iteration snapshot.
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Lint(events); err != nil {
		t.Fatalf("journal fails lint: %v", err)
	}
	_, res, err := egraph.Replay(events, egraph.ReplayOptions{ToIter: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GraphName != "scale" {
		t.Errorf("segment labeled %q, want the function name \"scale\"", res.GraphName)
	}
	if res.SnapshotsVerified != rep.Run.Iterations {
		t.Errorf("verified %d snapshots, run had %d iterations", res.SnapshotsVerified, rep.Run.Iterations)
	}
}
