package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func compareFixture() []Bench2Row {
	return []Bench2Row{
		{Benchmark: "Poly", SemiNaive: Bench2Mode{Iterations: 4, RowsScanned: 1000, RowsScannedTail: 400, MatchMS: 1.5},
			Sched: Bench2Mode{Iterations: 5, RowsScanned: 800, Throttled: 3, Limited: 1}},
		{Benchmark: "NMM", SemiNaive: Bench2Mode{Iterations: 9, RowsScanned: 5000, RowsScannedTail: 2500, MatchMS: 12}},
	}
}

// TestCompareBench2Gate: growth within tolerance passes, growth beyond it
// (or an iteration change, or a vanished benchmark) regresses, and wall
// time never gates.
func TestCompareBench2Gate(t *testing.T) {
	base := compareFixture()

	same := compareFixture()
	same[0].SemiNaive.MatchMS = 99 // times are noise, never gated
	if _, regs := CompareBench2(base, same, 0.05); len(regs) != 0 {
		t.Errorf("identical counters flagged: %v", regs)
	}

	within := compareFixture()
	within[0].SemiNaive.RowsScanned = 1040 // +4% < 5%
	if _, regs := CompareBench2(base, within, 0.05); len(regs) != 0 {
		t.Errorf("within-tolerance growth flagged: %v", regs)
	}

	beyond := compareFixture()
	beyond[0].SemiNaive.RowsScanned = 1200 // +20%
	if _, regs := CompareBench2(base, beyond, 0.05); len(regs) != 1 || !strings.Contains(regs[0], "Poly") {
		t.Errorf("20%% growth not flagged as exactly one regression: %v", regs)
	}

	iters := compareFixture()
	iters[1].SemiNaive.Iterations = 11
	if _, regs := CompareBench2(base, iters, 0.05); len(regs) != 1 || !strings.Contains(regs[0], "iterations") {
		t.Errorf("iteration change not flagged: %v", regs)
	}

	if _, regs := CompareBench2(base, base[:1], 0.05); len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Errorf("vanished benchmark not flagged: %v", regs)
	}

	schedRows := compareFixture()
	schedRows[0].Sched.RowsScanned = 1000 // +25% over the 800 baseline
	if _, regs := CompareBench2(base, schedRows, 0.05); len(regs) != 1 || !strings.Contains(regs[0], "scheduled rows") {
		t.Errorf("scheduled-rows growth not flagged: %v", regs)
	}

	throttle := compareFixture()
	throttle[0].Sched.Throttled = 7
	if _, regs := CompareBench2(base, throttle, 0.05); len(regs) != 1 || !strings.Contains(regs[0], "throttle count") {
		t.Errorf("throttle-count change not flagged: %v", regs)
	}

	capped := compareFixture()
	capped[0].Sched.Limited = 0
	if _, regs := CompareBench2(base, capped, 0.05); len(regs) != 1 || !strings.Contains(regs[0], "cap count") {
		t.Errorf("cap-count change not flagged: %v", regs)
	}

	rows, _ := CompareBench2(base, compareFixture(), 0.05)
	table := FormatCompare(rows)
	for _, want := range []string{"Poly", "NMM", "deterministic"} {
		if !strings.Contains(table, want) {
			t.Errorf("compare table missing %q:\n%s", want, table)
		}
	}
}

// TestReadBench2JSONRoundTrip: the artifact writer and the compare
// reader agree on the format.
func TestReadBench2JSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBench2JSON(path, compareFixture()); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadBench2JSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Benchmark != "Poly" || rows[1].SemiNaive.RowsScanned != 5000 {
		t.Errorf("round trip mangled rows: %+v", rows)
	}
	if _, err := ReadBench2JSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file read succeeded")
	}
}
