package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// tiny runs one cycle of a workload at a fraction of the benchmark's size.
// Episodes that fail their checks are logged, not fatal: these tests check
// the harness (repeatability, seeding, tracing), and a failed episode is as
// repeatable as a passing one.
func tiny(t *testing.T, name string, seed int64, trace bool) *report {
	t.Helper()
	o := options{workload: name, seed: seed, minEpisodes: 1, size: 0.25, trace: trace}
	if trace {
		o.budget = 300 * time.Millisecond // long enough for profile samples
	}
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	for _, ph := range []*phase{rep.untraced, rep.traced} {
		if ph == nil {
			continue
		}
		for _, r := range ph.results {
			if r.err != nil {
				t.Logf("%s seed %d config %d failed: %v", name, seed, r.cfg, r.err)
			}
		}
	}
	return rep
}

func fingerprints(ph *phase) []string {
	var out []string
	for _, r := range ph.results {
		out = append(out, r.fingerprint)
	}
	return out
}

// Counts repeat exactly for a seed, so they can stand as exact evidence;
// a different seed gives different inputs.
func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := tiny(t, w.name, 7, false), tiny(t, w.name, 7, false)
			if !reflect.DeepEqual(fingerprints(a.untraced), fingerprints(b.untraced)) {
				t.Errorf("fingerprints differ: %v vs %v", fingerprints(a.untraced), fingerprints(b.untraced))
			}
			if !reflect.DeepEqual(a.layerSums, b.layerSums) {
				t.Errorf("layer counts differ:\n%v\n%v", a.layerSums, b.layerSums)
			}
			c := tiny(t, w.name, 8, false)
			if reflect.DeepEqual(fingerprints(a.untraced), fingerprints(c.untraced)) {
				t.Errorf("seeds 7 and 8 give the same fingerprints %v", fingerprints(c.untraced))
			}
		})
	}
}

// The traced phase reproduces the untraced fingerprints (run fails the
// episodes otherwise) and emits every per-layer metric BENCHMARK.json names.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := tiny(t, w.name, 3, true)
			if !reflect.DeepEqual(fingerprints(rep.untraced)[:w.configs], fingerprints(rep.traced)[:w.configs]) {
				t.Errorf("traced fingerprints %v, untraced %v", fingerprints(rep.traced), fingerprints(rep.untraced))
			}
			layers, err := perLayer(rep)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.PerLayer {
				if _, ok := layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			e2e, _ := endToEnd(rep.untraced, rep.configs)
			for _, m := range spec.EndToEnd {
				if v, ok := e2e[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, %t; want a positive value", m.Name, v.Value, ok)
				}
			}
		})
	}
}

// A pinned fingerprint that does not match fails the episode without
// aborting the run.
func TestPinMismatchFailsEpisodes(t *testing.T) {
	rep, err := run(options{workload: "pmake", seed: 1, minEpisodes: 1, size: 0.25, pins: []string{"x", "x", "x", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.untraced.failed != len(rep.untraced.results) {
		t.Errorf("%d of %d episodes failed, want all", rep.untraced.failed, len(rep.untraced.results))
	}
}

func TestBadOptionsAreErrors(t *testing.T) {
	ok := options{workload: "pmake", seed: 1, minEpisodes: 1, size: 0.25}
	for name, o := range map[string]options{
		"unknown workload": {workload: "nope", seed: 1, minEpisodes: 1, size: 1},
		"zero size":        {workload: "pmake", seed: 1, minEpisodes: 1, size: 0},
		"negative size":    {workload: "pmake", seed: 1, minEpisodes: 1, size: -1},
		"zero episodes":    {workload: "pmake", seed: 1, minEpisodes: 0, size: 1},
		"negative episode": {workload: "pmake", seed: 1, minEpisodes: -3, size: 1},
		"short pins":       {workload: "pmake", seed: 1, minEpisodes: 1, size: 1, pins: []string{"x"}},
	} {
		if _, err := run(o); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := ok.validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{1000, 0.9, 100}, {100, 0.9, 10}, {99, 0.75, 24}, {40, 0.75, 10}, {39, 0.5, 19}, {4, 0.5, 2}} {
		q, v, beyond := tail(sorted(c.n))
		if q != c.q || beyond != c.beyond || v != float64(c.n-beyond) {
			t.Errorf("n=%d: p%g value %v with %d beyond, want p%g with %d beyond", c.n, q*100, v, beyond, c.q*100, c.beyond)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "sprite/internal/rpc.(*Endpoint).Call", "sprite/internal/sim.(*Simulation).Run"}, "rpc"},
		{[]string{"runtime.chanrecv1", "sprite/internal/sim.(*Env).Sleep", "sprite/internal/sim.(*CPU).Compute"}, "handoff"},
		{[]string{"sprite/internal/sim.(*eventHeap).Push", "sprite/internal/sim.(*Env).Sleep"}, "sim"},
		{[]string{"runtime.mcall", "runtime.park_m", "runtime.schedule"}, "handoff"},
		{[]string{"runtime.gcBgMarkWorker"}, "rt"},
		{[]string{"sprite/internal/checkpoint.Encode", "sprite/internal/recovery.(*JobCtx).Checkpoint"}, "recovery"},
		{[]string{"sprite/internal/fs.(*FS).AddServer", "sprite/internal/core.NewCluster", "main.(*episode).newCluster", "main.buildPmake"}, "setup"},
		{[]string{"sprite/internal/metrics.(*Registry).Snapshot", "sprite/internal/core.(*Cluster).MetricsSnapshot"}, "metrics"},
		{[]string{"sprite/internal/core.(*Ctx).Compute", "main.buildPmake.func1.1"}, "core"},
		{[]string{"sort.Float64s", "main.endToEnd"}, "bench"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
