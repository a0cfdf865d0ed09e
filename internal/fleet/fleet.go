// Package fleet is the pool-management plane layered over host selection,
// recovery, and migration: idle harvesting run as an economy rather than a
// per-host courtesy (DESIGN.md §13).
//
// The Sprite paper's eviction story ends at "the owner came back, migrate
// everything home". At fleet scale hosts also get sick, flap, and vanish
// in correlated bursts, so this package adds the three planes a real pool
// manager needs:
//
//   - A health plane: per-host signals — missed liveness probes (from the
//     recovery Monitor), eviction-hint rate (from the gossip selector),
//     and migration-abort counts (from kernel stats) — folded into one
//     deterministic health score with exponential decay.
//   - A cordon/drain state machine per host: Active → Cordoned → Draining
//     → Remediating → Readmitting → Active. Draining migrates every
//     resident process off (targets through hostsel, checkpoint/restart
//     through the recovery Supervisor when no host accepts), remediation
//     reboots the host, and readmission requires N consecutive clean
//     probes.
//   - Preemption-aware placement: a Pricer scoring candidate hosts by
//     expected time-to-eviction (learned online from observed eviction
//     inter-arrivals per host class), exposed to hostsel as a placement
//     filter, plus a per-user fairness ledger so competing users harvest
//     idle cycles proportionally.
//
// Every decision the manager takes is driven by virtual time and sorted
// host order, so runs are bit-for-bit reproducible; the drain-safety
// audit (no resident lost, none double-placed, drained host ends empty)
// registers into Cluster.CheckInvariants like the hostsel claim ledger.
package fleet

import (
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// HostState is a managed host's position in the cordon/drain machine.
type HostState int

// The cordon/drain states.
const (
	// Active: healthy, placeable, harvesting idle cycles.
	Active HostState = iota
	// Cordoned: withdrawn from placement; residents keep running during
	// the grace period in case the health dip is transient.
	Cordoned
	// Draining: every resident is being moved off — live migration first,
	// checkpoint/restart evacuation when no host accepts.
	Draining
	// Remediating: the host is empty and being power-cycled.
	Remediating
	// Readmitting: rebooted, on probation until enough clean probes.
	Readmitting
)

func (s HostState) String() string {
	switch s {
	case Active:
		return "active"
	case Cordoned:
		return "cordoned"
	case Draining:
		return "draining"
	case Remediating:
		return "remediating"
	case Readmitting:
		return "readmitting"
	default:
		return "?"
	}
}

// Params configures the fleet manager.
type Params struct {
	// Tick is the controller cadence.
	Tick time.Duration
	// CordonThreshold is the health score below which an Active host is
	// cordoned (scores live in [0,100]; 100 = pristine).
	CordonThreshold float64
	// CordonGrace is how long a cordoned host may recover before the
	// drain starts. A host whose score climbs back above the threshold
	// during the grace period is readmitted without draining.
	CordonGrace time.Duration
	// DrainPassTimeout bounds how long one drain pass waits for one
	// resident's migration before moving on (the request stays pending).
	DrainPassTimeout time.Duration
	// CleanProbes is how many consecutive successful liveness probes a
	// remediated host needs to be readmitted.
	CleanProbes int
	// HalfLife is the health signals' exponential-decay half-life.
	HalfLife time.Duration
	// ProbeWeight, HintWeight, AbortWeight scale the three signals into
	// score penalties.
	ProbeWeight float64
	HintWeight  float64
	AbortWeight float64
	// FairnessSlack is the per-user usage spread tolerated before the
	// ledger denies further grants (0 disables fairness throttling).
	FairnessSlack time.Duration
	// PricerAlpha is the EMA gain for eviction inter-arrival learning.
	PricerAlpha float64
	// PricerHorizon is the optimistic time-to-eviction assumed for host
	// classes with no observed eviction yet.
	PricerHorizon time.Duration
	// PlacementSlack is how many extra candidates each filtered selection
	// requests so vetoes do not starve the caller.
	PlacementSlack int
}

// DefaultParams returns a configuration matched to the default monitor
// cadence (20 ms probes).
func DefaultParams() Params {
	return Params{
		Tick:             25 * time.Millisecond,
		CordonThreshold:  55,
		CordonGrace:      50 * time.Millisecond,
		DrainPassTimeout: 100 * time.Millisecond,
		CleanProbes:      3,
		HalfLife:         250 * time.Millisecond,
		ProbeWeight:      18,
		HintWeight:       3,
		AbortWeight:      12,
		PricerAlpha:      0.3,
		PricerHorizon:    10 * time.Minute,
		PlacementSlack:   2,
	}
}

// hostRec is the manager's per-host record.
type hostRec struct {
	host  rpc.HostID
	state HostState
	since time.Duration // when the current state was entered

	probes signal // missed liveness probes
	hints  signal // eviction hints retracting this host
	aborts signal // outbound migration aborts

	lastAborts  uint64 // last KernelStats.MigrationsAborted reading
	cleanProbes int    // consecutive ok probes while Readmitting
	reason      string // why the host was cordoned
	drain       *drainRec
}

// Manager runs the fleet plane: one controller activity folding health
// signals and stepping every managed host's state machine in sorted host
// order each tick.
type Manager struct {
	c *core.Cluster
	p Params

	mon *recovery.Monitor
	sel hostsel.Selector
	sup *recovery.Supervisor

	pricer *Pricer
	shares *ShareLedger
	audit  *drainAudit

	hosts []rpc.HostID
	recs  map[rpc.HostID]*hostRec

	// hintPending counts gossip hints per host: the hint sink runs in RPC
	// handler activities, and the controller folds the counts at its own
	// tick in sorted host order.
	hintPending map[rpc.HostID]int

	stopped bool

	cordons         *metrics.Counter
	uncordons       *metrics.Counter
	drainsStarted   *metrics.Counter
	drainsCompleted *metrics.Counter
	remediations    *metrics.Counter
	readmissions    *metrics.Counter
	probationResets *metrics.Counter
	migratedC       *metrics.Counter
	evacuatedC      *metrics.Counter
	exitedC         *metrics.Counter
	stallsC         *metrics.Counter
	deniedC         *metrics.Counter
	drainLatency    *metrics.Timing
}

// New builds a fleet manager over the cluster's workstations. Wire the
// signal sources with SetMonitor / SetSelector / SetSupervisor before
// Start; the drain-safety audit registers into CheckInvariants
// immediately.
func New(c *core.Cluster, p Params) *Manager {
	def := DefaultParams()
	if p.Tick <= 0 {
		p.Tick = def.Tick
	}
	if p.CordonThreshold <= 0 {
		p.CordonThreshold = def.CordonThreshold
	}
	if p.CordonGrace <= 0 {
		p.CordonGrace = def.CordonGrace
	}
	if p.DrainPassTimeout <= 0 {
		p.DrainPassTimeout = def.DrainPassTimeout
	}
	if p.CleanProbes <= 0 {
		p.CleanProbes = def.CleanProbes
	}
	if p.HalfLife <= 0 {
		p.HalfLife = def.HalfLife
	}
	if p.ProbeWeight <= 0 {
		p.ProbeWeight = def.ProbeWeight
	}
	if p.HintWeight <= 0 {
		p.HintWeight = def.HintWeight
	}
	if p.AbortWeight <= 0 {
		p.AbortWeight = def.AbortWeight
	}
	if p.PricerAlpha <= 0 || p.PricerAlpha > 1 {
		p.PricerAlpha = def.PricerAlpha
	}
	if p.PricerHorizon <= 0 {
		p.PricerHorizon = def.PricerHorizon
	}
	if p.PlacementSlack < 0 {
		p.PlacementSlack = def.PlacementSlack
	}
	reg := c.Metrics()
	m := &Manager{
		c:           c,
		p:           p,
		pricer:      NewPricer(p.PricerAlpha, p.PricerHorizon),
		shares:      NewShareLedger(p.FairnessSlack),
		audit:       newDrainAudit(),
		recs:        make(map[rpc.HostID]*hostRec),
		hintPending: make(map[rpc.HostID]int),

		cordons:         reg.Counter("fleet.cordons"),
		uncordons:       reg.Counter("fleet.uncordons"),
		drainsStarted:   reg.Counter("fleet.drains.started"),
		drainsCompleted: reg.Counter("fleet.drains.completed"),
		remediations:    reg.Counter("fleet.remediations"),
		readmissions:    reg.Counter("fleet.readmissions"),
		probationResets: reg.Counter("fleet.probation.resets"),
		migratedC:       reg.Counter("fleet.procs.migrated"),
		evacuatedC:      reg.Counter("fleet.procs.evacuated"),
		exitedC:         reg.Counter("fleet.procs.exited"),
		stallsC:         reg.Counter("fleet.drain.stalls"),
		deniedC:         reg.Counter("fleet.fairness.denied"),
		drainLatency:    reg.Timing("fleet.drain_latency"),
	}
	for _, k := range c.Workstations() {
		h := k.Host()
		m.hosts = append(m.hosts, h)
		m.recs[h] = &hostRec{host: h, state: Active}
	}
	sort.Slice(m.hosts, func(i, j int) bool { return m.hosts[i] < m.hosts[j] })
	m.audit.register(c, m)
	return m
}

// Params returns the manager's configuration.
func (m *Manager) Params() Params { return m.p }

// Pricer returns the manager's time-to-eviction model.
func (m *Manager) Pricer() *Pricer { return m.pricer }

// SetMonitor attaches the liveness monitor: its per-probe results feed the
// missed-probe health signal and readmission probation, and its HostDown
// declarations feed the pricer's eviction model.
func (m *Manager) SetMonitor(mon *recovery.Monitor) {
	m.mon = mon
	mon.SetProbeObserver(m.ObserveProbe)
	mon.Subscribe(func(ev recovery.Event) {
		if ev.Kind == recovery.HostDown {
			m.pricer.ObserveEviction(ev.Host, ev.At)
		}
	})
}

// SetSelector attaches the host-selection architecture drains pick targets
// through. Pass the raw selector; wrap the one placement goes through with
// WrapSelector so cordoned hosts stay out of the pool.
func (m *Manager) SetSelector(sel hostsel.Selector) { m.sel = sel }

// SetSupervisor attaches the checkpoint/restart supervisor used as the
// drain fallback when no host accepts a live migration.
func (m *Manager) SetSupervisor(sup *recovery.Supervisor) { m.sup = sup }

// WatchGossip wires the gossip selector's eviction-hint stream into the
// hint-rate health signal.
func (m *Manager) WatchGossip(p *hostsel.Probabilistic) {
	p.SetHintSink(func(subject rpc.HostID) {
		m.hintPending[subject]++
	})
}

// State returns host's current position in the cordon/drain machine.
func (m *Manager) State(host rpc.HostID) HostState {
	if rec := m.recs[host]; rec != nil {
		return rec.state
	}
	return Active
}

// Score returns host's current health score in [0,100] at time now.
func (m *Manager) Score(host rpc.HostID, now time.Duration) float64 {
	rec := m.recs[host]
	if rec == nil {
		return 100
	}
	score := 100 -
		m.p.ProbeWeight*rec.probes.at(now, m.p.HalfLife) -
		m.p.HintWeight*rec.hints.at(now, m.p.HalfLife) -
		m.p.AbortWeight*rec.aborts.at(now, m.p.HalfLife)
	if score < 0 {
		return 0
	}
	return score
}

// ObserveProbe feeds one liveness-probe result into the health plane. The
// monitor calls it for every ping when attached through SetMonitor; tests
// may call it directly.
func (m *Manager) ObserveProbe(host rpc.HostID, ok bool, at time.Duration) {
	rec := m.recs[host]
	if rec == nil {
		return
	}
	if !ok {
		rec.probes.bump(at, m.p.HalfLife, 1)
		if rec.state == Readmitting && rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if rec.state == Readmitting {
		rec.cleanProbes++
	}
}

// NoteEviction reports an owner-return eviction on host at time `at`,
// feeding the pricer's inter-arrival model. Workload drivers call it when
// they trigger EvictAll.
func (m *Manager) NoteEviction(host rpc.HostID, at time.Duration) {
	m.pricer.ObserveEviction(host, at)
}

// Start boots the controller activity. Call before the cluster runs.
func (m *Manager) Start() {
	m.c.Boot("fleet-controller", m.run)
}

// Stop makes the controller exit at its next tick.
func (m *Manager) Stop() { m.stopped = true }

func (m *Manager) run(env *sim.Env) error {
	for {
		if err := env.Sleep(m.p.Tick); err != nil {
			return nil // the simulation is unwinding
		}
		if m.stopped {
			return nil
		}
		m.tick(env)
	}
}

// tick folds pending signals and steps every host's state machine, in
// sorted host order for determinism.
func (m *Manager) tick(env *sim.Env) {
	now := env.Now()
	pending := m.hintPending
	m.hintPending = make(map[rpc.HostID]int)
	for _, host := range m.hosts {
		rec := m.recs[host]
		if n := pending[host]; n > 0 {
			rec.hints.bump(now, m.p.HalfLife, float64(n))
		}
		if k := m.c.KernelOn(host); k != nil {
			if ab := k.Stats().MigrationsAborted; ab > rec.lastAborts {
				rec.aborts.bump(now, m.p.HalfLife, float64(ab-rec.lastAborts))
				rec.lastAborts = ab
			}
		}
	}
	for _, host := range m.hosts {
		m.step(env, m.recs[host])
	}
}

// step advances one host through the state machine.
func (m *Manager) step(env *sim.Env, rec *hostRec) {
	now := env.Now()
	switch rec.state {
	case Active:
		if m.Score(rec.host, now) < m.p.CordonThreshold {
			m.cordon(env, rec, "health")
		}
	case Cordoned:
		switch {
		case m.c.HostDown(rec.host):
			// The host died before the drain began: nothing resident
			// survived, go straight to remediation.
			m.enter(rec, Remediating, now)
		case m.Score(rec.host, now) >= m.p.CordonThreshold && rec.reason == "health":
			// The dip was transient; hand the host back without draining.
			m.uncordons.Inc()
			m.enter(rec, Active, now)
			m.offer(env, rec.host)
		case now-rec.since >= m.p.CordonGrace:
			m.startDrain(env, rec)
		}
	case Draining:
		m.drainPass(env, rec)
	case Remediating:
		m.remediate(env, rec)
	case Readmitting:
		m.readmitTick(env, rec)
	}
}

// Cordon withdraws host from placement by hand (operators, tests, and the
// fuzzer's drain-schedule mutations). Reason lands in the audit trail.
func (m *Manager) Cordon(env *sim.Env, host rpc.HostID, reason string) {
	rec := m.recs[host]
	if rec == nil || rec.state != Active {
		return
	}
	if reason == "" {
		reason = "manual"
	}
	m.cordon(env, rec, reason)
}

func (m *Manager) cordon(env *sim.Env, rec *hostRec, reason string) {
	rec.reason = reason
	m.cordons.Inc()
	m.enter(rec, Cordoned, env.Now())
	m.withdraw(env, rec.host)
}

func (m *Manager) enter(rec *hostRec, s HostState, now time.Duration) {
	rec.state = s
	rec.since = now
	if s == Readmitting {
		rec.cleanProbes = 0
	}
}

// withdraw removes host from the selector pool; offer hands it back.
func (m *Manager) withdraw(env *sim.Env, host rpc.HostID) {
	if m.sel != nil {
		_ = m.sel.NotifyAvailability(env, host, false)
	}
}

func (m *Manager) offer(env *sim.Env, host rpc.HostID) {
	if m.sel != nil {
		_ = m.sel.NotifyAvailability(env, host, true)
	}
}

// remediate power-cycles an empty drained host, gated by the
// fleet.remediate failpoint (an injected failure retries next tick).
func (m *Manager) remediate(env *sim.Env, rec *hostRec) {
	if err := m.c.FailAt(env, "fleet.remediate", core.NilPID); err != nil {
		return
	}
	m.c.Reboot(env, rec.host)
	m.remediations.Inc()
	// The reboot starts a new incarnation: its health history is the old
	// machine's, not its own.
	rec.probes = signal{}
	rec.hints = signal{}
	rec.aborts = signal{}
	if k := m.c.KernelOn(rec.host); k != nil {
		rec.lastAborts = k.Stats().MigrationsAborted
	}
	m.enter(rec, Readmitting, env.Now())
}

// readmitTick advances probation: CleanProbes consecutive successful
// probes (counted by ObserveProbe) readmit the host; a failed probe or a
// fleet.readmit failpoint firing resets the count.
func (m *Manager) readmitTick(env *sim.Env, rec *hostRec) {
	if m.c.HostDown(rec.host) {
		if rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if err := m.c.FailAt(env, "fleet.readmit", core.NilPID); err != nil {
		if rec.cleanProbes > 0 {
			rec.cleanProbes = 0
			m.probationResets.Inc()
		}
		return
	}
	if rec.cleanProbes >= m.p.CleanProbes {
		m.readmissions.Inc()
		m.enter(rec, Active, env.Now())
		m.offer(env, rec.host)
	}
}

// --- placement filter + fairness accounting ---

// FilterHosts implements hostsel.Filter: only Active hosts pass, ordered
// by the pricer's expected time-to-eviction (longest first, host id as the
// deterministic tiebreak); a user (the requesting client host) over its
// fairness share gets nothing.
func (m *Manager) FilterHosts(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) []rpc.HostID {
	if !m.shares.Allow(client.String()) {
		m.deniedC.Inc()
		return nil
	}
	now := env.Now()
	out := make([]rpc.HostID, 0, len(hosts))
	for _, h := range hosts {
		if rec := m.recs[h]; rec == nil || rec.state == Active {
			out = append(out, h)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := m.pricer.Score(out[i], now), m.pricer.Score(out[j], now)
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// WrapSelector layers the fleet plane over a selector: grants are filtered
// through FilterHosts (state + pricer + fairness) and charged to the
// fairness ledger until released.
func (m *Manager) WrapSelector(sel hostsel.Selector) hostsel.Selector {
	return &fairSelector{m: m, inner: hostsel.WithFilter(sel, m, m.p.PlacementSlack)}
}

// fairSelector charges the fairness ledger for the hold time of every
// granted host.
type fairSelector struct {
	m     *Manager
	inner hostsel.Selector
}

var _ hostsel.Selector = (*fairSelector)(nil)

func (f *fairSelector) Name() string { return f.inner.Name() }

func (f *fairSelector) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	hosts, err := f.inner.RequestHosts(env, client, n)
	user := client.String()
	for _, h := range hosts {
		f.m.shares.Acquire(user, h, env.Now())
	}
	return hosts, err
}

func (f *fairSelector) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	user := client.String()
	for _, h := range hosts {
		f.m.shares.Release(user, h, env.Now())
	}
	return f.inner.Release(env, client, hosts)
}

func (f *fairSelector) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	return f.inner.NotifyAvailability(env, host, available)
}

func (f *fairSelector) Stats() hostsel.Stats { return f.inner.Stats() }
