package fault

import (
	"flag"
	"os"
	"strconv"
	"testing"
)

// Replay a single scenario:
//
//	go test ./internal/fault -run TestClusterFuzz -seed=<seed>
//
// The seed printed in a failure report reproduces the failing run bit for
// bit, including its shrunk form.
var fuzzSeed = flag.Int64("seed", 0, "replay one fuzz scenario by seed")

// fuzzSmokeN is the default scenario budget for the plain `go test` smoke
// run; set SPRITE_FUZZ=<n> for a longer sweep.
const fuzzSmokeN = 30

// TestClusterFuzz runs randomized fault scenarios and fails on the first
// invariant violation, after shrinking it to a minimal reproduction.
func TestClusterFuzz(t *testing.T) {
	if *fuzzSeed != 0 {
		sc := GenScenario(*fuzzSeed)
		t.Logf("replaying %v", sc)
		if res := RunScenario(sc); res.Failed() {
			min, minRes := Shrink(sc)
			t.Fatalf("seed %d failed:\n%sshrunk to %v:\n%s", *fuzzSeed, res.Report(), min, minRes.Report())
		}
		return
	}
	n := fuzzSmokeN
	if s := os.Getenv("SPRITE_FUZZ"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	kinds := make(map[Kind]int)
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		sc := GenScenario(seed)
		for _, e := range sc.Events {
			kinds[e.Kind]++
		}
		if res := RunScenario(sc); res.Failed() {
			min, minRes := Shrink(sc)
			t.Fatalf("scenario failed (replay: go test ./internal/fault -run TestClusterFuzz -seed=%d):\n%sshrunk to %v:\n%s",
				seed, res.Report(), min, minRes.Report())
		}
	}
	// The smoke run must actually exercise fault diversity, not just pass.
	if len(kinds) < 3 {
		t.Fatalf("smoke run covered only %d fault kinds (%v), want >= 3", len(kinds), kinds)
	}
}

// TestScenarioDeterminism: the same seed yields byte-identical runs — the
// property the replay workflow depends on.
func TestScenarioDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 42, 1009} {
		sc := GenScenario(seed)
		a, b := RunScenario(sc), RunScenario(sc)
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ:\n  %s\n  %s", seed, a.Digest, b.Digest)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violation counts differ: %v vs %v", seed, a.Violations, b.Violations)
		}
	}
}

// TestShrinkMovesWithSyntheticPredicate drives the greedy shrinker with a
// predicate that fails only while the crash on host 2 is present and at
// least three processes run: shrinking must keep exactly that event, drop
// gossip, and stop halving at the smallest failing size.
func TestShrinkMovesWithSyntheticPredicate(t *testing.T) {
	sc := Scenario{Procs: 12, Gossip: true, Events: []Event{
		{Kind: KindDrop, Host: 0}, {Kind: KindCrash, Host: 2}, {Kind: KindDelay, Host: 1},
	}}
	min, got := shrink(sc, scenarioParts, func(s Scenario) (int, bool) {
		for _, e := range s.Events {
			if e.Kind == KindCrash && e.Host == 2 {
				return len(s.Events), s.Procs >= 3
			}
		}
		return len(s.Events), false
	})
	want := Scenario{Procs: 3, Events: []Event{{Kind: KindCrash, Host: 2}}}
	if min.String() != want.String() || got != 1 {
		t.Fatalf("shrunk to %v (result %d), want %v (result 1)", min, got, want)
	}
	if sc.Procs != 12 || len(sc.Events) != 3 {
		t.Fatalf("shrink mutated its input: %v", sc)
	}
}
