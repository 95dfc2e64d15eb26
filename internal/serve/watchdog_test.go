package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"dialegg/internal/obs"
	"dialegg/internal/obs/telemetry"
)

// explosiveRequest is a request whose node count provably cannot stop
// growing: an addi chain under commutativity+associativity multiplies
// equivalent shapes combinatorially every iteration (Catalan growth), so
// the per-iteration growth ratio stays far above any sane threshold until
// the node limit lands. Limits keep the test fast while leaving enough
// iterations for the watchdog's consecutive-growth window.
func explosiveRequest(name string) *OptimizeRequest {
	return &OptimizeRequest{
		MLIR:    addChainModule(name, 10),
		RuleSet: "imgconv",
		Rules:   []string{commAssoc},
		Config:  &RunOptions{IterLimit: 6, NodeLimit: 300_000},
	}
}

// TestWatchdogTrips is the end-to-end health-watchdog gate: a
// deterministically exploding request must increment the trip counter,
// emit the structured warning with the request's correlation ID, and
// leave a flagged flight record whose trace is valid and retrievable.
func TestWatchdogTrips(t *testing.T) {
	logger, logs := testLogger()
	s, c := newTestServer(t, Config{
		Workers: 1,
		Logger:  logger,
		// Trip on two consecutive iterations of >=1.5x node growth —
		// conservative against the workload's multi-x explosion, strict
		// against saturating workloads that flatten out.
		Watchdog: WatchdogConfig{GrowthFactor: 1.5, GrowthWindow: 2},
	})
	const tripID = "watchdog-trip-req"

	resp, body, echoed := postOptimize(t, c.BaseURL, explosiveRequest("boom"), tripID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	if echoed != tripID {
		t.Fatalf("echoed ID %q", echoed)
	}

	// Trip counter moved, exposition still lints.
	_, _, exposition := httpGet(t, c.BaseURL+"/metrics")
	if _, err := telemetry.Lint(exposition); err != nil {
		t.Fatalf("post-trip exposition fails lint: %v", err)
	}
	if got := metricValue(t, exposition, "egg_watchdog_trips_total"); got != 1 {
		t.Fatalf("egg_watchdog_trips_total = %v, want 1", got)
	}

	// Structured warning names the request and the reason.
	logged := logs.String()
	if !strings.Contains(logged, `"engine watchdog tripped"`) {
		t.Fatalf("no watchdog warning in logs:\n%s", logged)
	}
	if !strings.Contains(logged, `"request_id":"`+tripID+`"`) || !strings.Contains(logged, "growth-rate") {
		t.Errorf("watchdog warning missing request_id/reason:\n%s", logged)
	}

	// The flight record is flagged and its trace is a valid Chrome trace
	// carrying the same correlation ID.
	fr := s.flight.Get(tripID)
	if fr == nil {
		t.Fatal("no flight record for the tripped request")
	}
	if !fr.Tripped || !strings.HasPrefix(fr.TripReason, "growth-rate") {
		t.Fatalf("flight record tripped=%v reason=%q", fr.Tripped, fr.TripReason)
	}
	code, _, trace := httpGet(t, c.BaseURL+"/debugz/flightz?id="+tripID)
	if code != http.StatusOK {
		t.Fatalf("GET flight trace: %d", code)
	}
	if n, err := obs.ValidateTrace(trace); err != nil || n == 0 {
		t.Fatalf("flight trace invalid (%d events): %v", n, err)
	}
	if !bytes.Contains(trace, []byte(tripID)) {
		t.Error("flight trace does not carry the request ID")
	}

	// The listing surfaces the verdict too.
	_, _, listing := httpGet(t, c.BaseURL+"/debugz/flightz")
	var list struct {
		Records []flightSummary `json:"records"`
	}
	if err := json.Unmarshal(listing, &list); err != nil {
		t.Fatal(err)
	}
	var tripped bool
	for _, r := range list.Records {
		if r.ID == tripID && r.Tripped && strings.HasPrefix(r.TripReason, "growth-rate") {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("flight listing does not flag the request: %s", listing)
	}
}

// TestWatchdogQuietOnSaneWorkload: a normal, saturating request must not
// trip the watchdog even with the test's strict thresholds.
func TestWatchdogQuietOnSaneWorkload(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers:  1,
		Watchdog: WatchdogConfig{GrowthFactor: 1.5, GrowthWindow: 2},
	})
	resp, body, _ := postOptimize(t, c.BaseURL,
		&OptimizeRequest{MLIR: divPow2Module, RuleSet: "imgconv"}, "sane-req")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	_, _, exposition := httpGet(t, c.BaseURL+"/metrics")
	if got := metricValue(t, exposition, "egg_watchdog_trips_total"); got != 0 {
		t.Fatalf("egg_watchdog_trips_total = %v for a sane workload", got)
	}
}

// TestWatchdogDisabled: Disabled really disables — the explosive workload
// runs unflagged (gauges still update).
func TestWatchdogDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers:  1,
		Watchdog: WatchdogConfig{Disabled: true, GrowthFactor: 1.5, GrowthWindow: 2},
	})
	resp, body, _ := postOptimize(t, c.BaseURL, explosiveRequest("quiet"), "disabled-req")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d: %s", resp.StatusCode, body)
	}
	_, _, exposition := httpGet(t, c.BaseURL+"/metrics")
	if got := metricValue(t, exposition, "egg_watchdog_trips_total"); got != 0 {
		t.Fatalf("egg_watchdog_trips_total = %v with watchdog disabled", got)
	}
	if got := metricValue(t, exposition, "egg_engine_nodes"); got <= 0 {
		t.Errorf("egg_engine_nodes = %v, want > 0", got)
	}
}
