package core

import (
	"fmt"
	"sort"
	"time"

	"sprite/internal/fs"
	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Options configures a simulated Sprite cluster.
type Options struct {
	// Workstations is the number of diskless workstations (minimum 1).
	Workstations int
	// FileServers is the number of file servers (minimum 1). The first
	// serves "/"; additional servers serve "/vol2", "/vol3", ...
	FileServers int
	// ServerPrefixes optionally overrides the domain served by each file
	// server (index i configures server i). Longest prefix wins, so e.g.
	// {"/", "/swap"} dedicates the second server to VM backing store.
	ServerPrefixes []string
	// Params carries every calibration constant (DefaultParams if zero).
	Params *Params
	// Seed seeds the simulation's deterministic random stream.
	Seed int64
}

// Cluster is a simulated Sprite installation: a set of workstations and
// file servers joined by one network, one RPC fabric, and one shared file
// system.
type Cluster struct {
	sim       *sim.Simulation
	params    Params
	net       *netsim.Network
	transport *rpc.Transport
	fs        *fs.FS

	kernels      map[rpc.HostID]*Kernel
	workstations []*Kernel
	servers      []*fs.Server

	// metrics is the cluster-wide metrics plane. It is always present —
	// every instrument is an atomic add or a mutex-guarded histogram
	// insert, and none of them touches virtual time, so carrying it
	// unconditionally cannot perturb an experiment.
	metrics *metrics.Registry

	trace TraceFunc

	// failpoint, when set, is consulted at named migration steps (fault
	// injection; see SetFailpoint).
	failpoint FailpointFunc

	// The process ledger backs the exactly-once accounting invariant:
	// every started pid must exit (or be reported crashed) exactly once.
	ledgerStarted map[PID]int
	ledgerEnded   map[PID]int

	// deferReap switches host crashes from the omniscient legacy semantics
	// (every kernel reacts the instant the crash happens) to Sprite's real
	// ones: surviving kernels keep running on stale state until a detector
	// calls ReapDeadHost. See SetDeferredReap.
	deferReap bool
	// reapedEpochs records, per host, the highest boot epoch whose death has
	// been reaped cluster-wide (ReapDeadHost idempotence + invariant checks).
	reapedEpochs map[rpc.HostID]rpc.Epoch
	// downAt records when each host last crashed, for detection-latency
	// metrics in the recovery plane.
	downAt map[rpc.HostID]time.Duration

	// extraChecks are invariant contributions registered by subsystems
	// layered on the cluster (the host-selection claim ledger, for one);
	// CheckInvariants runs them after its own checks.
	extraChecks []func(endOfRun bool) []string

	// reapHooks run at the end of ReapDeadHost, once per reaped (host,
	// epoch): subsystems holding per-host soft state keyed by the dead
	// incarnation (leased claims in hostsel, drain bookkeeping in fleet)
	// scrub it here, epoch-guarded, instead of leaking it until the
	// end-of-run audit.
	reapHooks []func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch)
}

// AddInvariantCheck registers an additional cluster-wide invariant checker
// consulted by CheckInvariants. Checkers must be read-only and
// deterministic: they run at quiesce points and their messages land in
// fuzzer digests and test assertions.
func (c *Cluster) AddInvariantCheck(fn func(endOfRun bool) []string) {
	c.extraChecks = append(c.extraChecks, fn)
}

// AddReapHook registers a callback run at the end of every effective
// ReapDeadHost (after the cluster-wide crash-recovery matrix has settled,
// skipped for the idempotent re-reap of an already-reaped epoch). Hooks run
// in registration order in the reaping activity's context.
func (c *Cluster) AddReapHook(fn func(env *sim.Env, host rpc.HostID, epoch rpc.Epoch)) {
	c.reapHooks = append(c.reapHooks, fn)
}

// TraceFunc receives cluster events (migrations, evictions, process
// lifecycle) as they happen in virtual time. See internal/trace for a
// ready-made ring-buffer sink.
type TraceFunc func(at time.Duration, kind, detail string)

// SetTrace installs an event sink (nil disables tracing). Finished metric
// spans (migration phases, etc.) land in the same sink as "span" events.
func (c *Cluster) SetTrace(fn TraceFunc) {
	c.trace = fn
	c.metrics.SetTrace(fn)
}

// emit records a trace event if a sink is installed.
func (c *Cluster) emit(at time.Duration, kind, detail string) {
	if c.trace != nil {
		c.trace(at, kind, detail)
	}
}

// NewCluster builds a cluster per the options.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Workstations < 1 {
		return nil, fmt.Errorf("core: need at least one workstation, got %d", opts.Workstations)
	}
	if opts.FileServers < 1 {
		opts.FileServers = 1
	}
	params := DefaultParams()
	if opts.Params != nil {
		params = *opts.Params
	}
	s := sim.New(opts.Seed)
	reg := metrics.New()
	net := netsim.New(s, params.Net)
	transport := rpc.NewTransport(s, net, params.RPC, reg)
	fsys := fs.New(s, transport, params.FS, reg)

	c := &Cluster{
		sim:           s,
		params:        params,
		net:           net,
		transport:     transport,
		fs:            fsys,
		metrics:       reg,
		kernels:       make(map[rpc.HostID]*Kernel),
		ledgerStarted: make(map[PID]int),
		ledgerEnded:   make(map[PID]int),
		reapedEpochs:  make(map[rpc.HostID]rpc.Epoch),
		downAt:        make(map[rpc.HostID]time.Duration),
	}
	for i := 0; i < opts.FileServers; i++ {
		host := rpc.HostID(1 + i)
		prefix := "/"
		if i > 0 {
			prefix = fmt.Sprintf("/vol%d", i+1)
		}
		if i < len(opts.ServerPrefixes) && opts.ServerPrefixes[i] != "" {
			prefix = opts.ServerPrefixes[i]
		}
		c.servers = append(c.servers, fsys.AddServer(host, prefix))
	}
	for i := 0; i < opts.Workstations; i++ {
		host := rpc.HostID(1 + opts.FileServers + i)
		k := newKernel(c, host)
		c.kernels[host] = k
		c.workstations = append(c.workstations, k)
	}
	return c, nil
}

// Sim returns the underlying simulation.
func (c *Cluster) Sim() *sim.Simulation { return c.sim }

// Params returns the cluster's calibration constants.
func (c *Cluster) Params() Params { return c.params }

// FS returns the shared file system.
func (c *Cluster) FS() *fs.FS { return c.fs }

// Network returns the network model.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Transport returns the RPC fabric.
func (c *Cluster) Transport() *rpc.Transport { return c.transport }

// Metrics returns the cluster-wide metrics registry. Subsystems (rpc, fs,
// migration) feed it continuously; derived statistics kept elsewhere are
// folded in by MetricsSnapshot.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// MetricsSnapshot folds every derived statistic the cluster keeps outside
// the registry — scheduler counters, per-kernel migration tallies, per-file-
// server activity, per-RPC-service traffic — into gauges, then returns a
// deterministic point-in-time snapshot. Two same-seed runs produce
// byte-identical Text()/JSON() renderings.
func (c *Cluster) MetricsSnapshot() metrics.Snapshot {
	r := c.metrics
	ss := c.sim.Stats()
	r.Gauge("sim.events_dispatched").Set(int64(ss.EventsDispatched))
	r.Gauge("sim.context_switches").Set(int64(ss.ContextSwitches))
	r.Gauge("sim.max_queue_depth").Set(int64(ss.MaxQueueDepth))
	r.Gauge("sim.activities_spawned").Set(int64(ss.Spawned))
	// mig.inflight is derived from the identity started == completed +
	// aborted + inflight (migmeter.go) rather than tracked live, so its
	// rendered high-water mark is the level at snapshot time.
	r.Gauge("mig.inflight").Set(r.Counter("mig.started").Value() -
		r.Counter("mig.completed").Value() - r.Counter("mig.aborted").Value())
	// Every fold below iterates its source map in sorted key order: gauge
	// registration order feeds the snapshot's rendering contract, so the
	// first snapshot of a run must see identical key sequences run to run.
	for _, host := range sortedHosts(c.kernels) {
		pre := fmt.Sprintf("kernel.%v.", host)
		st := c.kernels[host].Stats()
		r.Gauge(pre + "migrations_out").Set(int64(st.MigrationsOut))
		r.Gauge(pre + "migrations_in").Set(int64(st.MigrationsIn))
		r.Gauge(pre + "evictions").Set(int64(st.Evictions))
		r.Gauge(pre + "forwarded_calls").Set(int64(st.ForwardedCalls))
		r.Gauge(pre + "remote_execs").Set(int64(st.RemoteExecs))
		r.Gauge(pre + "procs_started").Set(int64(st.ProcsStarted))
		r.Gauge(pre + "procs_exited").Set(int64(st.ProcsExited))
		r.Gauge(pre + "procs_crashed").Set(int64(st.ProcsCrashed))
	}
	servers := c.fs.Servers()
	for _, host := range sortedHosts(servers) {
		pre := fmt.Sprintf("fsserver.%v.", host)
		st := servers[host].Stats()
		r.Gauge(pre + "lookups").Set(int64(st.Lookups))
		r.Gauge(pre + "blocks_read").Set(int64(st.BlocksRead))
		r.Gauge(pre + "blocks_written").Set(int64(st.BlocksWrite))
		r.Gauge(pre + "cold_reads").Set(int64(st.ColdReads))
		r.Gauge(pre + "flush_recalls").Set(int64(st.FlushRecall))
		r.Gauge(pre + "cache_disables").Set(int64(st.Disables))
	}
	svcStats := c.transport.Stats()
	svcs := make([]string, 0, len(svcStats))
	for svc := range svcStats {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		st := svcStats[svc]
		pre := "rpc.service." + svc + "."
		r.Gauge(pre + "calls").Set(int64(st.Calls))
		r.Gauge(pre + "bytes").Set(int64(st.Bytes))
		r.Gauge(pre + "errs").Set(int64(st.Errs))
	}
	return r.Snapshot()
}

// sortedHosts returns m's keys in ascending host order.
func sortedHosts[V any](m map[rpc.HostID]V) []rpc.HostID {
	hosts := make([]rpc.HostID, 0, len(m))
	for h := range m {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	return hosts
}

// Workstations returns the workstation kernels in host order.
func (c *Cluster) Workstations() []*Kernel {
	out := make([]*Kernel, len(c.workstations))
	copy(out, c.workstations)
	return out
}

// Servers returns the file servers in host order.
func (c *Cluster) Servers() []*fs.Server {
	out := make([]*fs.Server, len(c.servers))
	copy(out, c.servers)
	return out
}

// Workstation returns the i-th workstation kernel (0-based).
func (c *Cluster) Workstation(i int) *Kernel { return c.workstations[i] }

// KernelOn returns the kernel running on the given host, or nil.
func (c *Cluster) KernelOn(host rpc.HostID) *Kernel { return c.kernels[host] }

// Run executes the simulation until no events remain or the time limit is
// reached (limit <= 0 means unlimited).
func (c *Cluster) Run(limit time.Duration) error { return c.sim.Run(limit) }

// Stop aborts the simulation, unwinding every activity.
func (c *Cluster) Stop() { c.sim.Stop() }

// Boot spawns a driver activity at time zero. It is the usual way to inject
// scenario code into the cluster.
func (c *Cluster) Boot(name string, fn func(env *sim.Env) error) {
	c.sim.Spawn(name, fn)
}

// Seed creates a file in the shared FS without charging virtual time
// (scenario setup).
func (c *Cluster) Seed(path string, data []byte) error {
	_, err := c.fs.Seed(path, data, false)
	return err
}

// SeedBinary seeds a program binary of the given size.
func (c *Cluster) SeedBinary(path string, size int) error {
	_, err := c.fs.SeedSized(path, size, false)
	return err
}

// SetStrategyAll installs one VM transfer strategy on every workstation.
func (c *Cluster) SetStrategyAll(s TransferStrategy) {
	for _, k := range c.workstations {
		k.SetStrategy(s)
	}
}

// MigrationRecords gathers the migration records of every kernel.
func (c *Cluster) MigrationRecords() []MigrationRecord {
	var out []MigrationRecord
	for _, k := range c.workstations {
		out = append(out, k.MigrationRecords()...)
	}
	return out
}

// Kill routes a kill of target through its home machine, issued from via's
// endpoint — the daemon-context counterpart of Ctx.Kill. The fleet drain
// path uses it to evacuate a resident no host will accept alive.
func (c *Cluster) Kill(env *sim.Env, via *Kernel, target PID) error {
	return c.killPID(env, via, target)
}

// killPID routes a kill through the target's home machine.
func (c *Cluster) killPID(env *sim.Env, via *Kernel, target PID) error {
	homeK := c.kernels[target.Home]
	if homeK == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchProcess, target)
	}
	if _, err := via.ep.Call(env, homeK.host, "k.kill", killArgs{PID: target}, 32); err != nil {
		return err
	}
	return nil
}
