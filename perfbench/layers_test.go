package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json, at the repository root, must declare exactly the
// metrics this program prints, and layers.json must give every timed call
// its three metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)

	names := map[string]bool{}
	for _, d := range perLayer {
		if names[d.Name] {
			t.Errorf("per-layer metric %s is listed twice", d.Name)
		}
		names[d.Name] = true
	}
	if len(timedCalls()) != 11 {
		t.Errorf("%d timed calls, want 11", len(timedCalls()))
	}
	for _, x := range timedCalls() {
		for _, suffix := range []string{"_ms", "_allocs", "_share"} {
			if !names[x+suffix] {
				t.Errorf("timed call %s has no %s metric", x, x+suffix)
			}
		}
	}
}
