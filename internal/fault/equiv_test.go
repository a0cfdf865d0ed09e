package fault

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

// Replay one rerun-determinism scenario:
//
//	go test ./internal/fault -run TestKernelEquivalence -rerunseed=<seed>
var rerunSeed = flag.Int64("rerunseed", 0, "replay one rerun-determinism scenario by seed")

// rerunSmokeN is the scenario budget for the plain `go test` run; the
// sim-level property suite (internal/sim) covers 50+ seeds of raw kernel
// behaviour, so the cluster-level budget here trades seed count for the
// much larger per-seed surface (full trace + metrics bytes). Set
// SPRITE_EQUIV=<n> for a longer sweep.
const rerunSmokeN = 10

// TestKernelEquivalence holds the kernel equivalent to itself: it is the
// cluster-level determinism double-run, where full fuzz scenarios —
// migrations, crashes, partitions, gossip — must produce byte-identical
// traces, metrics snapshots, order digests, and invariant verdicts when run
// twice. Failures shrink to a minimal scenario.
func TestKernelEquivalence(t *testing.T) {
	check := func(seed int64) {
		sc := GenScenario(seed)
		if diffs := RerunCheck(sc); len(diffs) > 0 {
			min, minDiffs := ShrinkRerun(sc)
			t.Fatalf("seed %d diverged on rerun (replay: go test ./internal/fault -run TestKernelEquivalence -rerunseed=%d):\n  %v\nshrunk to %v:\n  %v",
				seed, seed, diffs, min, minDiffs)
		}
	}
	if *rerunSeed != 0 {
		check(*rerunSeed)
		return
	}
	n := rerunSmokeN
	if s := os.Getenv("SPRITE_EQUIV"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	for i := 0; i < n; i++ {
		check(int64(2000 + i))
	}
}

// TestKernelObservationComplete guards the comparison surface itself: a
// run must actually produce trace bytes, metrics bytes, and digests —
// otherwise RerunCheck could go green by comparing empty strings.
func TestKernelObservationComplete(t *testing.T) {
	obs := RunScenarioObserved(GenScenario(2001))
	if obs.Trace == "" {
		t.Error("no trace captured")
	}
	if obs.Metrics == "" {
		t.Error("no metrics captured")
	}
	if obs.Digest == "" {
		t.Error("no digest captured")
	}
	if obs.Order == 0 {
		t.Error("order digest is zero")
	}
	if obs.RunErr != "" || len(obs.Violations) > 0 {
		t.Errorf("baseline scenario not clean: err=%q violations=%v", obs.RunErr, obs.Violations)
	}
}
