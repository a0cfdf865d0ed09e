package fault

import (
	"fmt"
	"strings"
)

// This file is the cluster-level rerun-determinism harness: the same fuzz
// scenario — processes, migrations, crashes, partitions, gossip — runs
// twice on the serial kernel, and every observable byte (trace stream,
// metrics snapshot, order digest, invariant reports) must be identical. A
// run is a pure function of its scenario; a dependence on map iteration
// order, wall time, or goroutine scheduling shows up here as the first
// differing line.

// RunScenarioObserved runs sc once and returns the full observation.
func RunScenarioObserved(sc Scenario) KernelObservation {
	var obs KernelObservation
	runScenario(sc, &obs)
	return obs
}

// diffLine locates the first line where two multi-line strings diverge,
// for actionable failure reports.
func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// diffObs returns one message per observable that differs between a rerun
// (got) and the first run (want); an empty slice means byte-identical.
func diffObs(got, want KernelObservation) []string {
	var diffs []string
	if got.Order != want.Order {
		diffs = append(diffs, fmt.Sprintf("order digest %#x, first run %#x", got.Order, want.Order))
	}
	if got.Trace != want.Trace {
		diffs = append(diffs, fmt.Sprintf("trace diverged at %s", diffLine(got.Trace, want.Trace)))
	}
	if got.Metrics != want.Metrics {
		diffs = append(diffs, fmt.Sprintf("metrics diverged at %s", diffLine(got.Metrics, want.Metrics)))
	}
	if got.Digest != want.Digest {
		diffs = append(diffs, fmt.Sprintf("digest %q, first run %q", got.Digest, want.Digest))
	}
	if got.RunErr != want.RunErr {
		diffs = append(diffs, fmt.Sprintf("run error %q, first run %q", got.RunErr, want.RunErr))
	}
	if gv, wv := strings.Join(got.Violations, "; "), strings.Join(want.Violations, "; "); gv != wv {
		diffs = append(diffs, fmt.Sprintf("invariants %q, first run %q", gv, wv))
	}
	return diffs
}

// RerunCheck runs sc twice and returns one message per divergence (empty
// slice = the rerun reproduced every observable byte).
func RerunCheck(sc Scenario) []string {
	want := RunScenarioObserved(sc)
	return diffObs(RunScenarioObserved(sc), want)
}

// ShrinkRerun greedily minimizes a scenario whose reruns diverge, reusing
// the fuzzer's shrinking moves with "still diverges" as the predicate.
func ShrinkRerun(sc Scenario) (Scenario, []string) {
	return shrink(sc, scenarioParts, func(s Scenario) ([]string, bool) {
		d := RerunCheck(s)
		return d, len(d) > 0
	})
}
