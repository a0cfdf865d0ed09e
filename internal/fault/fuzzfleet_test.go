package fault

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

// Replay a single fleet scenario:
//
//	go test ./internal/fault -run TestFleetFuzz -fleet-seed=<seed>
var fleetSeed = flag.Int64("fleet-seed", 0, "replay one fleet fuzz scenario by seed")

// fleetSmokeN covers the acceptance bar for the drain-safety family: 50
// seeds of eviction storms, flapping hosts, correlated rack failures, and
// manual cordons, all run against the audit. SPRITE_FLEET_FUZZ=<n>
// lengthens the sweep.
const fleetSmokeN = 50

func runFleetSeed(t *testing.T, seed int64) {
	t.Helper()
	sc := GenFleetScenario(seed)
	if res := RunFleetScenario(sc); res.Failed() {
		min, minRes := ShrinkFleet(sc)
		t.Fatalf("fleet scenario failed (replay: go test ./internal/fault -run TestFleetFuzz -fleet-seed=%d):\n%sshrunk:\n%s",
			seed, sc.Report(res), min.Report(minRes))
	}
}

// TestFleetFuzz runs the eviction-storm scenario family and fails on the
// first drain-safety violation (resident lost, double placement, drained
// host not empty), lost job, hang, or core invariant breach — shrunk to a
// minimal reproduction.
func TestFleetFuzz(t *testing.T) {
	if *fleetSeed != 0 {
		t.Logf("replaying %v", GenFleetScenario(*fleetSeed))
		runFleetSeed(t, *fleetSeed)
		return
	}
	n := fleetSmokeN
	if s := os.Getenv("SPRITE_FLEET_FUZZ"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	kinds := make(map[FleetEventKind]int)
	gossipRuns := 0
	for i := 0; i < n; i++ {
		seed := int64(5000 + i)
		sc := GenFleetScenario(seed)
		for _, e := range sc.Events {
			kinds[e.Kind]++
		}
		if sc.Gossip {
			gossipRuns++
		}
		runFleetSeed(t, seed)
	}
	// The family must actually exercise storm diversity and both selector
	// configurations, not just pass.
	if len(kinds) < 3 {
		t.Fatalf("fleet sweep covered only %d event kinds (%v), want >= 3", len(kinds), kinds)
	}
	if n >= fleetSmokeN && gossipRuns == 0 {
		t.Fatal("fleet sweep never ran with gossip selection")
	}
}

// TestFleetScenarioDeterminism: the same seed yields identical runs — the
// property replay and shrinking depend on.
func TestFleetScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{11, 5003, 5021} {
		sc := GenFleetScenario(seed)
		a, b := RunFleetScenario(sc), RunFleetScenario(sc)
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ:\n  %s\n  %s", seed, a.Digest, b.Digest)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violation counts differ: %v vs %v", seed, a.Violations, b.Violations)
		}
	}
}

// TestFleetKernelEquivalence: a fleet storm run twice commits the same
// event order, trace, digest, and metrics — the byte-exact determinism
// double-run over the drain/remediate/readmit plane.
func TestFleetKernelEquivalence(t *testing.T) {
	for _, seed := range []int64{5002, 5007, 5013} {
		sc := GenFleetScenario(seed)
		res, first := RunFleetScenarioObserved(sc)
		if res.Failed() {
			t.Fatalf("seed %d: scenario failed:\n%s", seed, sc.Report(res))
		}
		_, again := RunFleetScenarioObserved(sc)
		if diffs := diffObs(*again, *first); len(diffs) > 0 {
			t.Errorf("seed %d: rerun diverged:\n  %v", seed, diffs)
		}
	}
}
