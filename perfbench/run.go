package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	// budget is how long each measured phase runs; a phase always ends on
	// a whole cycle of the workload's configurations.
	budget time.Duration
	// minEpisodes is the least number of episodes a phase runs (rounded up
	// to whole cycles).
	minEpisodes int
	// size scales every episode's host, process and job counts (1 is the
	// benchmark's size).
	size float64
	// trace adds a traced phase after the untraced one and reports the
	// per-layer metrics instead of the end-to-end ones.
	trace bool
	// pins holds the expected fingerprint per configuration, if the run
	// seed has one recorded.
	pins []string
}

// phase is one stretch of episodes measured together.
type phase struct {
	results   []*episodeResult
	failed    int
	wall      time.Duration
	cpu       time.Duration // process user+sys
	alloc     uint64        // bytes allocated
	objects   uint64        // objects allocated
	gcs       uint64        // completed GC cycles
	footprint uint64        // largest live heap of one finished episode

	// traced phases only
	tracer     *tracer
	profile    []byte
	goroutines int // peak goroutine count
}

// report is what a run prints and writes.
type report struct {
	opts      options
	configs   int
	untraced  *phase
	traced    *phase // nil unless opts.trace
	layerSums map[string]float64
}

func (o options) validate() (workload, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return w, err
	}
	switch {
	case o.size <= 0 || o.size > 1 || math.IsNaN(o.size):
		return w, fmt.Errorf("size %v out of range (0, 1]", o.size)
	case o.minEpisodes <= 0:
		return w, fmt.Errorf("episode count %d must be positive", o.minEpisodes)
	case o.budget < 0:
		return w, fmt.Errorf("negative time budget %v", o.budget)
	case o.pins != nil && len(o.pins) != w.configs:
		return w, fmt.Errorf("%d pinned fingerprints for %d configurations", len(o.pins), w.configs)
	}
	return w, nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type rtReading struct {
	cpu                 time.Duration
	alloc, objects, gcs uint64
}

// processCPU is the process's user+sys CPU time, all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() rtReading {
	metrics.Read(runtimeSamples)
	return rtReading{
		cpu:     processCPU(),
		alloc:   runtimeSamples[0].Value.Uint64(),
		objects: runtimeSamples[1].Value.Uint64(),
		gcs:     runtimeSamples[2].Value.Uint64(),
	}
}

// runPhase runs episodes until the budget has passed and at least
// minEpisodes have run, always stopping on a whole cycle of configurations.
func runPhase(w workload, o options, tr *tracer) *phase {
	ph := &phase{tracer: tr}
	minEpisodes := (o.minEpisodes + w.configs - 1) / w.configs * w.configs
	before := readRuntime()
	t0 := time.Now()
	for id := 0; ; id++ {
		if id%w.configs == 0 && id >= minEpisodes && time.Since(t0) >= o.budget {
			break
		}
		ph.results = append(ph.results, runEpisode(w, o.seed, o.size, id, tr))
	}
	ph.wall = time.Since(t0)
	after := readRuntime()
	ph.cpu = after.cpu - before.cpu
	ph.alloc = after.alloc - before.alloc
	ph.objects = after.objects - before.objects
	ph.gcs = after.gcs - before.gcs
	return ph
}

// footprint is the largest live heap one finished episode holds. After
// the timed phase, each configuration runs once more and the heap is
// measured with a forced GC while its finished cluster is still referenced,
// so the figure does not depend on when the collector last ran.
func footprint(w workload, o options) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	var peak uint64
	for cfg := 0; cfg < w.configs; cfg++ {
		base := live() // the harness's own results stay live throughout
		ep := newEpisode(w, o.seed, o.size, cfg, nil)
		if err := w.build(ep); err != nil {
			continue // the timed phase has already reported it
		}
		_ = ep.c.Run(ep.limit) // likewise
		if l := live(); l > base {
			peak = max(peak, l-base)
		}
		runtime.KeepAlive(ep.c)
	}
	return peak
}

// checkFingerprints fails every episode whose fingerprint differs from the
// reference for its configuration: the pinned value when the seed has one,
// else the first episode of that configuration in ref (the untraced phase
// when checking the traced one), else the first in ph itself.
func checkFingerprints(ph *phase, pins []string, ref *phase) {
	want := map[int]string{}
	for cfg, fp := range pins {
		want[cfg] = fp
	}
	for _, src := range []*phase{ref, ph} {
		if src == nil {
			continue
		}
		for _, r := range src.results {
			if _, ok := want[r.cfg]; !ok && r.err == nil {
				want[r.cfg] = r.fingerprint
			}
		}
	}
	for _, r := range ph.results {
		if w, ok := want[r.cfg]; ok && r.fingerprint != w && r.err == nil {
			r.err = fmt.Errorf("fingerprint %s, want %s", r.fingerprint, w)
		}
		if r.err != nil {
			ph.failed++
		}
	}
}

// run executes the benchmark.
func run(o options) (*report, error) {
	w, err := o.validate()
	if err != nil {
		return nil, err
	}
	rep := &report{opts: o, configs: w.configs}
	rep.untraced = runPhase(w, o, nil)
	checkFingerprints(rep.untraced, o.pins, nil)
	rep.untraced.footprint = footprint(w, o)
	rep.layerSums = firstCycleSums(rep.untraced, w.configs)
	if !o.trace {
		return rep, nil
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak int
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	rep.traced = runPhase(w, o, tr)
	close(stop)
	wg.Wait()
	pprof.StopCPUProfile()
	rep.traced.profile = prof.Bytes()
	rep.traced.goroutines = peak
	// Tracing must not change what the simulation does: every count of the
	// traced first cycle must match the untraced one.
	for i, r := range rep.traced.results[:w.configs] {
		if !reflect.DeepEqual(r.counts, rep.untraced.results[i].counts) && r.err == nil {
			r.err = fmt.Errorf("traced counts %v differ from untraced %v", r.counts, rep.untraced.results[i].counts)
		}
	}
	checkFingerprints(rep.traced, o.pins, rep.untraced)
	return rep, nil
}

// firstCycleSums sums every layer count over the phase's first cycle of
// configurations: a fixed amount of work, so the sums repeat exactly for a
// seed however fast the host is.
func firstCycleSums(ph *phase, configs int) map[string]float64 {
	sums := map[string]float64{}
	for _, r := range ph.results[:configs] {
		for name, v := range r.counts {
			sums[name] += v
		}
	}
	return sums
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(r, 1)-1]
}

// tailLadder lists the percentiles the tail may report, highest first.
var tailLadder = []float64{0.9, 0.75, 0.5}

// tail returns the highest ladder percentile with at least ten episodes
// beyond it, its value, and how many episodes lie beyond it. The ladder
// stops at p90, so a faster host, which runs more episodes, does not move
// the reported percentile.
func tail(sorted []float64) (q, v float64, beyond int) {
	n := len(sorted)
	for _, q := range tailLadder {
		r := int(math.Ceil(q * float64(n)))
		if n-r >= 10 {
			return q, sorted[r-1], n - r
		}
	}
	q = tailLadder[len(tailLadder)-1]
	r := int(math.Ceil(q * float64(n)))
	return q, sorted[max(r, 1)-1], n - r
}

func sortedMs(rs []*episodeResult, f func(*episodeResult) time.Duration) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(f(r)) / 1e6
	}
	sort.Float64s(out)
	return out
}

func runOf(r *episodeResult) time.Duration { return r.run }

// configMedian is the mean over configurations of each configuration's
// median, in ms. The configurations differ in size, so one median over all
// episodes would sit in the gap between two of them and jump with noise.
func configMedian(rs []*episodeResult, configs int, f func(*episodeResult) time.Duration) float64 {
	var sum float64
	for cfg := 0; cfg < configs; cfg++ {
		var of []*episodeResult
		for _, r := range rs {
			if r.cfg == cfg {
				of = append(of, r)
			}
		}
		sum += quantile(sortedMs(of, f), 0.5)
	}
	return sum / float64(configs)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runTimes summarises the phase's Cluster.Run times as measured by f: the
// simulated seconds per host second of each whole cycle of configurations
// (each cycle is the same work), median over the cycles; the median per
// configuration, averaged; and the tail.
func runTimes(ph *phase, configs int, f func(*episodeResult) time.Duration) (rate, p50 float64, t tailInfo) {
	var rates []float64
	for i := 0; i+configs <= len(ph.results); i += configs {
		var virt, host time.Duration
		for _, r := range ph.results[i : i+configs] {
			virt += r.virt
			host += f(r)
		}
		rates = append(rates, virt.Seconds()/host.Seconds())
	}
	sort.Float64s(rates)
	t.q, t.value, t.beyond = tail(sortedMs(ph.results, f))
	t.n = len(ph.results)
	return quantile(rates, 0.5), configMedian(ph.results, configs, f), t
}

func runCPUOf(r *episodeResult) time.Duration { return r.runCPU }

// endToEnd computes the end-to-end metrics of an untraced phase. Run times
// are process CPU time (all threads, GC included), not wall time: on a
// shared virtual machine, wall time also counts time other tenants take.
func endToEnd(ph *phase, configs int) (map[string]metric, tailInfo) {
	n := float64(len(ph.results))
	rate, p50, t := runTimes(ph, configs, runCPUOf)
	m := map[string]metric{
		"sim_rate":            {rate, "sim_s/cpu_s"},
		"episode_cpu_p50_ms":  {p50, "ms"},
		"episode_cpu_tail_ms": {t.value, "ms"},
		"setup_s":             {configMedian(ph.results, configs, func(r *episodeResult) time.Duration { return r.setupCPU }) / 1e3, "s"},
		"cpu_s":               {ph.cpu.Seconds() / n, "s/episode"},
		"alloc_mb":            {float64(ph.alloc) / n / (1 << 20), "MB/episode"},
		"episode_heap_mb":     {float64(ph.footprint) / (1 << 20), "MB"},
	}
	return m, t
}

type tailInfo struct {
	q, value  float64
	beyond, n int
}

// countUnits lists every layer count an episode may read, with its unit.
// Counts are summed over the first cycle of configurations; a count an
// episode does not have (no selector, no pmake) reads 0.
var countUnits = map[string]string{
	"sim.events": "count", "sim.switches": "count", "sim.spawned": "count", "sim.max_queue": "events",
	"cpu.compute_calls": "count", "cpu.busy_virt_s": "s",
	"netsim.msgs": "count", "netsim.bytes": "bytes",
	"rpc.calls": "count", "rpc.bytes": "bytes", "rpc.retries": "count", "rpc.timeouts": "count",
	"rpc.bulk_fragments": "count",
	"fs.lookups":         "count", "fs.blocks_read": "count", "fs.blocks_written": "count", "fs.cold_reads": "count",
	"fs.flush_recalls": "count", "fs.client_hit_ratio": "ratio",
	"vm.bytes_moved":  "bytes",
	"core.migrations": "count", "core.mig_aborted": "count", "core.forwarded_calls": "count",
	"core.remote_execs": "count", "core.procs_started": "count",
	"hostsel.requests": "count", "hostsel.granted": "count", "hostsel.conflicts": "count",
	"hostsel.messages": "count",
	"recovery.pings":   "count", "recovery.restarts": "count", "checkpoint.count": "count",
	"fleet.drains": "count", "fleet.migrated": "count", "fleet.evacuated": "count",
	"pmake.jobs": "count", "pmake.remote_jobs": "count", "pmake.makespan_virt_s": "s",
}

// perLayer computes the per-layer metrics from the untraced phase's counts
// and the traced phase's spans and profile.
func perLayer(rep *report) (map[string]metric, error) {
	u, t := rep.untraced, rep.traced
	m := map[string]metric{}
	for name, unit := range countUnits {
		v := rep.layerSums[name]
		if unit == "ratio" || name == "sim.max_queue" {
			v /= float64(rep.configs) // mean over the cycle
		}
		m[name] = metric{v, unit}
	}
	var runNs float64
	for _, r := range u.results[:rep.configs] {
		runNs += float64(r.run)
	}
	m["sim.ns_per_event"] = metric{runNs / rep.layerSums["sim.events"], "ns"}
	m["core.mig_virt_ms_p50"] = metric{t.tracer.virtMsP50("ctx.Migrate"), "ms"}
	m["hostsel.request_virt_ms_p50"] = metric{t.tracer.virtMsP50("RequestHosts"), "ms"}

	ms := func(f func(*episodeResult) time.Duration) float64 {
		return quantile(sortedMs(u.results, f), 0.5)
	}
	m["setup.cluster_ms"] = metric{ms(func(r *episodeResult) time.Duration { return r.setup - r.seed }), "ms"}
	m["setup.seed_ms"] = metric{ms(func(r *episodeResult) time.Duration { return r.seed }), "ms"}
	m["metrics.snapshot_ms"] = metric{ms(func(r *episodeResult) time.Duration { return r.snapshot }), "ms"}

	n := float64(len(u.results))
	m["rt.gc_cycles"] = metric{float64(u.gcs) / n, "1/episode"}
	m["rt.alloc_objects"] = metric{float64(u.objects) / n, "1/episode"}
	m["rt.goroutines_peak"] = metric{float64(t.goroutines), "count"}

	stacks, err := parseProfile(t.profile)
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	shares, compute, samples := layerShares(stacks)
	if samples == 0 {
		return nil, errors.New("the traced phase took no profile samples")
	}
	for _, l := range traceLayers {
		switch l {
		case "handoff":
			m["sim.handoff_share"] = metric{shares[l], "share"}
		case "rt":
			m["rt.gc_cpu_share"] = metric{shares[l], "share"}
		default:
			m[l+".host_share"] = metric{shares[l], "share"}
		}
	}
	m["cpu.compute_share"] = metric{compute, "share"}
	m["trace.samples"] = metric{float64(samples), "count"}

	traced := sortedMs(t.results, func(r *episodeResult) time.Duration { return r.run })
	untraced := sortedMs(u.results, func(r *episodeResult) time.Duration { return r.run })
	m["trace_overhead"] = metric{quantile(traced, 0.5) / quantile(untraced, 0.5), "ratio"}

	rate, p50, wt := runTimes(u, rep.configs, runOf)
	m["wall.sim_rate"] = metric{rate, "sim_s/s"}
	m["wall.episode_p50_ms"] = metric{p50, "ms"}
	m["wall.episode_tail_ms"] = metric{wt.value, "ms"}
	return m, nil
}
