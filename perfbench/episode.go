package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/sim"
)

// episode is one cluster built from public constructors, run to completion,
// checked, and snapshotted. The harness times its calls into each layer from
// outside; inSim spans time the calls the episode's own programs make.
type episode struct {
	id   int   // position in the run
	cfg  int   // workload configuration, id mod configs
	seed int64 // derived from the run seed and cfg only
	size float64
	rng  *rand.Rand
	tr   *tracer // nil when tracing is off

	c     *core.Cluster
	sel   hostsel.Selector // the placement selector, if the episode has one
	limit time.Duration    // Cluster.Run horizon (0 = run to quiescence)
	check func() error     // the workload's own outcome check

	exits  []string           // "pid@virtual-time=status" per harness-started process
	counts map[string]float64 // layer counts, filled after the run

	runSpan int // span id of Cluster.Run, parent of in-simulation spans
	seedDur time.Duration
}

// episodeResult is what the run keeps of an episode.
type episodeResult struct {
	cfg         int
	setup       time.Duration // cluster construction and seeding
	setupCPU    time.Duration // process CPU time during setup
	seed        time.Duration // the seeding calls alone
	run         time.Duration // Cluster.Run
	runCPU      time.Duration // process CPU time during Cluster.Run
	snapshot    time.Duration // Cluster.MetricsSnapshot
	virt        time.Duration // virtual end time
	fingerprint string
	counts      map[string]float64
	err         error // non-nil if the episode failed
}

// episodeSeed derives an episode's seed from the run seed and configuration.
func episodeSeed(workload string, runSeed int64, cfg int) int64 {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/%d", workload, runSeed, cfg)
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)) >> 1)
}

func (ep *episode) newCluster(opts core.Options) (*core.Cluster, error) {
	s := ep.tr.begin(ep.id, 0, "NewCluster", 0)
	c, err := core.NewCluster(opts)
	ep.tr.end(s, 0)
	ep.c = c
	return c, err
}

// ladder returns the value for the episode's configuration. Sizes come from
// the configuration, not the seed, so every seed runs the same amount of
// work and the seed varies only which inputs fill it.
func (ep *episode) ladder(perConfig ...int) int { return perConfig[ep.cfg%len(perConfig)] }

// sized is ladder scaled by the episode size, never below floor.
func (ep *episode) sized(floor int, perConfig ...int) int {
	return max(floor, int(math.Round(float64(ep.ladder(perConfig...))*ep.size)))
}

// seeding times fn as a seeding call: file-system contents the episode
// needs before it runs.
func (ep *episode) seeding(fn func() error) error {
	s := ep.tr.begin(ep.id, 0, "seed", 0)
	t0 := time.Now()
	err := fn()
	ep.seedDur += time.Since(t0)
	ep.tr.end(s, 0)
	return err
}

// inSim spans a call the episode's programs make into a layer while the
// simulation runs.
func (ep *episode) inSim(env *sim.Env, name string, fn func() error) error {
	if ep.tr == nil {
		return fn()
	}
	s := ep.tr.begin(ep.id, ep.runSpan, name, env.Now())
	err := fn()
	ep.tr.end(s, env.Now())
	return err
}

// count sets a layer count read after the run.
func (ep *episode) count(name string, v float64) { ep.counts[name] = v }

// countSim adds to a layer count from inside the simulation.
func (ep *episode) countSim(name string, v float64) { ep.counts[name] += v }

// join waits for a harness-started process and records its exit.
func (ep *episode) join(env *sim.Env, p *core.Process) error {
	v, err := p.Exited().Wait(env)
	if err != nil {
		return err
	}
	ep.exits = append(ep.exits, fmt.Sprintf("%v@%d=%v", p.PID(), env.Now(), v))
	if status, ok := v.(int); !ok || status != 0 {
		return fmt.Errorf("process %v (%s) exited with status %v", p.PID(), p.Name(), v)
	}
	return nil
}

func newEpisode(w workload, runSeed int64, size float64, id int, tr *tracer) *episode {
	cfg := id % w.configs
	ep := &episode{
		id:     id,
		cfg:    cfg,
		seed:   episodeSeed(w.name, runSeed, cfg),
		size:   size,
		tr:     tr,
		counts: make(map[string]float64),
	}
	ep.rng = rand.New(rand.NewSource(ep.seed))
	return ep
}

// runEpisode builds, runs, checks and snapshots one episode. A failure of the
// episode itself is reported in the result, not as an error.
func runEpisode(w workload, runSeed int64, size float64, id int, tr *tracer) *episodeResult {
	ep := newEpisode(w, runSeed, size, id, tr)
	cfg := ep.cfg
	res := &episodeResult{cfg: cfg}
	root := tr.begin(id, 0, "episode", 0)
	defer func() { tr.end(root, res.virt) }()

	cpu0 := processCPU()
	t0 := time.Now()
	err := w.build(ep)
	res.setup = time.Since(t0)
	res.setupCPU = processCPU() - cpu0
	res.seed = ep.seedDur
	if err != nil {
		res.err = fmt.Errorf("setup: %w", err)
		return res
	}
	c := ep.c

	ep.runSpan = tr.begin(id, root, "Cluster.Run", 0)
	cpu0 = processCPU()
	t0 = time.Now()
	err = c.Run(ep.limit)
	res.run = time.Since(t0)
	res.runCPU = processCPU() - cpu0
	res.virt = c.Sim().Now()
	tr.end(ep.runSpan, res.virt)

	s := tr.begin(id, root, "MetricsSnapshot", res.virt)
	t0 = time.Now()
	snap := c.MetricsSnapshot()
	res.snapshot = time.Since(t0)
	tr.end(s, res.virt)

	var problems []string
	if err != nil {
		problems = append(problems, fmt.Sprintf("run: %v", err))
	}
	if live := c.Sim().LiveActivities(); live > 0 {
		problems = append(problems, fmt.Sprintf("%d activities still live", live))
	}
	if v := c.CheckInvariants(true); len(v) > 0 {
		problems = append(problems, "invariants: "+strings.Join(v, "; "))
	}
	if err := ep.check(); err != nil {
		problems = append(problems, err.Error())
	}
	layerCounts(ep, snap.Counters)
	res.counts = ep.counts
	res.fingerprint = fingerprint(ep, res.virt)
	if len(problems) > 0 {
		res.err = fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return res
}

// layerCounts reads every layer's public counters after the run.
func layerCounts(ep *episode, counters map[string]int64) {
	c := ep.c
	now := c.Sim().Now()
	ss := c.Sim().Stats()
	ep.count("sim.events", float64(ss.EventsDispatched))
	ep.count("sim.switches", float64(ss.ContextSwitches))
	ep.count("sim.spawned", float64(ss.Spawned))
	ep.count("sim.max_queue", float64(ss.MaxQueueDepth))

	var busy time.Duration
	var ks core.KernelStats
	for _, k := range c.Workstations() {
		busy += k.CPU().BusyTime(now)
		st := k.Stats()
		ks.MigrationsAborted += st.MigrationsAborted
		ks.ForwardedCalls += st.ForwardedCalls
		ks.RemoteExecs += st.RemoteExecs
		ks.ProcsStarted += st.ProcsStarted
	}
	ep.count("cpu.busy_virt_s", busy.Seconds())

	ep.count("netsim.msgs", float64(c.Network().Messages()))
	ep.count("netsim.bytes", float64(c.Network().Bytes()))

	ep.count("rpc.calls", float64(counters["rpc.calls"]))
	ep.count("rpc.bytes", float64(counters["rpc.bytes"]))
	ep.count("rpc.retries", float64(counters["rpc.retries"]))
	ep.count("rpc.timeouts", float64(counters["rpc.timeouts"]))
	ep.count("rpc.bulk_fragments", float64(counters["rpc.bulk.fragments"]))

	var lookups, read, written, cold, recalls uint64
	for _, s := range c.Servers() {
		st := s.Stats()
		lookups += st.Lookups
		read += st.BlocksRead
		written += st.BlocksWrite
		cold += st.ColdReads
		recalls += st.FlushRecall
	}
	ep.count("fs.lookups", float64(lookups))
	ep.count("fs.blocks_read", float64(read))
	ep.count("fs.blocks_written", float64(written))
	ep.count("fs.cold_reads", float64(cold))
	ep.count("fs.flush_recalls", float64(recalls))
	hits, misses := counters["fs.cache.hits"], counters["fs.cache.misses"]
	if hits+misses > 0 {
		ep.count("fs.client_hit_ratio", float64(hits)/float64(hits+misses))
	} else {
		ep.count("fs.client_hit_ratio", 0)
	}

	ep.count("vm.bytes_moved", float64(counters["mig.vm_bytes"]))

	ep.count("core.migrations", float64(counters["mig.completed"]))
	ep.count("core.mig_aborted", float64(ks.MigrationsAborted))
	ep.count("core.forwarded_calls", float64(ks.ForwardedCalls))
	ep.count("core.remote_execs", float64(ks.RemoteExecs))
	ep.count("core.procs_started", float64(ks.ProcsStarted))

	if ep.sel != nil {
		st := ep.sel.Stats()
		ep.count("hostsel.requests", float64(st.Requests))
		ep.count("hostsel.granted", float64(st.Granted))
		ep.count("hostsel.conflicts", float64(st.Conflicts))
		ep.count("hostsel.messages", float64(st.Messages))
	}

	ep.count("recovery.pings", float64(counters["recovery.pings"]))
	ep.count("recovery.restarts", float64(counters["recovery.restarts"]))
	ep.count("checkpoint.count", float64(counters["recovery.checkpoints"]))

	ep.count("fleet.drains", float64(counters["fleet.drains.started"]))
	ep.count("fleet.migrated", float64(counters["fleet.procs.migrated"]))
	ep.count("fleet.evacuated", float64(counters["fleet.procs.evacuated"]))
}

// simulatorCount reports whether a count measures the simulator rather
// than the simulated system: a simulator-only change may move it, so the
// fingerprint leaves it out.
func simulatorCount(name string) bool {
	return strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "rt.") || name == "cpu.compute_calls"
}

// fingerprint hashes the episode's model output: virtual end time, the exit
// time and status of every harness-started process, every migration record,
// and the model counts. Simulator counts and the event-order digest are
// left out, so an optimisation that removes events keeps the fingerprint
// while one that changes a simulated answer does not.
func fingerprint(ep *episode, virt time.Duration) string {
	h := sha256.New()
	fmt.Fprintf(h, "virt=%d\n", virt)
	for _, e := range ep.exits {
		fmt.Fprintf(h, "exit %s\n", e)
	}
	for _, r := range ep.c.MigrationRecords() {
		fmt.Fprintf(h, "mig %+v\n", r)
	}
	names := make([]string, 0, len(ep.counts))
	for name := range ep.counts {
		if !simulatorCount(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%v\n", name, ep.counts[name])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
