package core

import (
	"fmt"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// This file is the kernel half of the fault plane: named mid-migration
// failure points, fail-stop host crash and restart, and the process ledger
// behind the exactly-once exit invariant. With no failpoint installed and no
// crash injected, nothing here perturbs a run — golden outputs stay
// bit-identical.

// FailpointFunc decides whether a named migration step fails. It runs in
// the migrating process's activity at the end of the step; a non-nil error
// aborts the migration there and drives the real abort-recovery path.
// Points: "mig.init", "mig.vm", "mig.streams", "mig.pcb" (the exec-time
// variant skips "mig.vm").
type FailpointFunc func(env *sim.Env, name string, pid PID) error

// SetFailpoint installs (or with nil removes) the migration failpoint hook.
func (c *Cluster) SetFailpoint(fn FailpointFunc) { c.failpoint = fn }

func (c *Cluster) failAt(env *sim.Env, name string, pid PID) error {
	if c.failpoint == nil {
		return nil
	}
	return c.failpoint(env, name, pid)
}

// FailAt consults the installed failpoint hook at a named point outside the
// migration path. The recovery plane uses it for its own points
// ("recovery.ping", "recovery.restart") so the fault plane can perturb
// detection and failover with the same machinery that aborts migrations.
func (c *Cluster) FailAt(env *sim.Env, name string, pid PID) error {
	return c.failAt(env, name, pid)
}

// --- process ledger ---

func (c *Cluster) noteStart(pid PID) {
	c.ledgerStarted[pid]++
}

func (c *Cluster) noteEnd(pid PID) {
	c.ledgerEnded[pid]++
}

// --- host crash, restart, reboot, and reaping ---

// SetDeferredReap selects the crash-knowledge model. Off (the default, and
// the legacy behaviour every existing test pins down), CrashHost is
// omniscient: surviving kernels react to the crash the instant it happens.
// On, a crash destroys only the state that physically lived on the dead
// host; every surviving kernel keeps its stale view — remote children stay
// in process tables, parents stay blocked in Wait — until a failure
// detector (internal/recovery's monitor, or a test directly) calls
// ReapDeadHost. That is Sprite's real model: crash knowledge spreads by
// detection, not by magic.
func (c *Cluster) SetDeferredReap(on bool) { c.deferReap = on }

// HostEpoch returns the host's current boot epoch (1 until its first
// restart).
func (c *Cluster) HostEpoch(host rpc.HostID) rpc.Epoch {
	if ep := c.transport.Endpoint(host); ep != nil {
		return ep.Epoch()
	}
	return 0
}

// DownSince returns when the host last crashed. ok is false if it never
// has. The recovery plane subtracts this from detection time to report
// detect/restart latency.
func (c *Cluster) DownSince(host rpc.HostID) (time.Duration, bool) {
	at, ok := c.downAt[host]
	return at, ok
}

// ReapedEpoch returns the highest boot epoch of host whose death has been
// reaped cluster-wide (0 if none).
func (c *Cluster) ReapedEpoch(host rpc.HostID) rpc.Epoch { return c.reapedEpochs[host] }

// CrashHost fail-stops a host: its endpoint goes down, every process
// executing on it is destroyed, and the file system runs its recovery
// protocol, scrubbing the host's open state from every server (servers
// detect a dead client as soon as the RPC channel breaks, so their half of
// recovery is never deferred).
//
// In the default (omniscient) mode, every process whose *home* the host is
// also dies wherever it runs — home records are the soft state that makes
// migration transparent; without a home machine the process has no identity
// (Sprite's home-dependency semantics) — and parents blocked in Wait here
// are woken with ErrHostCrashed. With deferred reaping (SetDeferredReap),
// that surviving-kernel half waits for ReapDeadHost.
//
// Processes executing ON the crashed host unwind immediately without
// running any more simulated work. Processes merely HOMED there die through
// the ordinary kill path at their next migration point, closing their
// descriptors for real — their kernels are still alive.
func (c *Cluster) CrashHost(env *sim.Env, host rpc.HostID) {
	epoch := rpc.Epoch(0)
	if ep := c.transport.Endpoint(host); ep != nil {
		epoch = ep.Epoch()
		ep.SetDown(true)
	}
	c.downAt[host] = env.Now()
	if k := c.kernels[host]; k != nil {
		for _, p := range k.Processes() {
			if p.cur != k {
				// A skeleton installed by an in-flight migration whose
				// switch-over has not happened: it dies with the host; the
				// migrating process aborts back to its source.
				delete(k.procs, p.pid)
				continue
			}
			c.destroyProcess(env, p, host, epoch)
		}
		if !c.deferReap {
			for _, rec := range k.homeRecords() {
				p := rec.proc
				if w := rec.waiter; w != nil {
					// A parent blocked in Wait at this (its home) machine:
					// wake it with the crash so it can unwind.
					rec.waiter = nil
					w.Complete(nil, ErrHostCrashed)
				}
				if p.state == StateExited || p.crashed || p.cur == k {
					continue
				}
				p.post(SigKill)
			}
			k.homeRecs = make(map[PID]*homeRecord)
		}
	}
	c.fs.ScrubHostEpoch(host, epoch)
	c.emit(env.Now(), "host-crash", fmt.Sprintf("host %v epoch %d", host, epoch))
}

// RestartHost brings a crashed host back with empty tables under a new boot
// epoch. Its pid sequence keeps counting (Sprite pids encode an
// incarnation-safe sequence), so pids from before the crash are never
// reused.
func (c *Cluster) RestartHost(env *sim.Env, host rpc.HostID) {
	if ep := c.transport.Endpoint(host); ep != nil {
		ep.Restart()
	}
	c.emit(env.Now(), "host-restart", fmt.Sprintf("host %v epoch %d", host, c.HostEpoch(host)))
}

// Reboot power-cycles a host: if it is up it crashes first (same semantics
// as CrashHost, including deferred reaping of the surviving kernels'
// state), its own volatile tables are cleared — waking any remote waiter
// still blocked on one of its home records — and it comes back registered
// under the next boot epoch. Detectors tell the reboot from an unbroken run
// by the epoch carried in RPC replies.
func (c *Cluster) Reboot(env *sim.Env, host rpc.HostID) {
	ep := c.transport.Endpoint(host)
	if ep == nil {
		return
	}
	if !ep.Down() {
		c.CrashHost(env, host)
	}
	if k := c.kernels[host]; k != nil {
		// The machine's memory is gone regardless of reap mode: deferred
		// reaping keeps these records *visible* for the detector's sake, but
		// a reboot destroys them before any detector can act.
		for _, rec := range k.homeRecords() {
			if w := rec.waiter; w != nil {
				rec.waiter = nil
				w.Complete(nil, ErrHostCrashed)
			}
		}
		k.homeRecs = make(map[PID]*homeRecord)
	}
	c.RestartHost(env, host)
	c.emit(env.Now(), "host-reboot", fmt.Sprintf("host %v epoch %d", host, c.HostEpoch(host)))
}

// ReapDeadHost applies Sprite's crash-recovery matrix for one dead boot
// incarnation of host, cluster-wide. It is idempotent per epoch and safe to
// run late: everything it touches is guarded by the boot epoch, so state
// created by a post-reboot incarnation is never harmed.
//
//   - The dead incarnation's own home records are discarded; a remote
//     process still blocked in Wait on one is woken with ErrHostCrashed.
//   - Every surviving kernel kills its foreign processes whose home was the
//     dead incarnation (orphans: without a home machine the process has no
//     identity).
//   - Every surviving home settles the records of its remote children that
//     died on the host: the parent's next (or pending) Wait returns the
//     distinguished CrashStatus.
//   - File servers close streams and refcounts owned by the dead epoch (a
//     no-op when the crash itself already scrubbed them).
func (c *Cluster) ReapDeadHost(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
	if epoch == 0 || c.reapedEpochs[host] >= epoch {
		return
	}
	c.reapedEpochs[host] = epoch
	if k := c.kernels[host]; k != nil {
		for _, rec := range k.homeRecords() {
			if rec.proc.homeEpoch > epoch {
				continue
			}
			if w := rec.waiter; w != nil {
				rec.waiter = nil
				w.Complete(nil, ErrHostCrashed)
			}
			delete(k.homeRecs, rec.pid)
		}
	}
	for _, k := range c.workstations {
		for _, p := range k.Processes() {
			if p.cur != k || p.state == StateExited || p.killed || p.crashed {
				continue
			}
			if p.home.host == host && p.homeEpoch <= epoch {
				p.post(SigKill)
				c.emit(env.Now(), "reap-orphan", fmt.Sprintf("%v %s on %v (home %v died)", p.pid, p.name, k.host, host))
			}
		}
	}
	for _, k := range c.workstations {
		if k.host == host {
			continue
		}
		for _, rec := range k.homeRecords() {
			p := rec.proc
			if p.crashed && p.state == StateExited && p.cur != nil && p.cur.host == host && p.crashEpoch <= epoch {
				k.recordExit(p.pid, CrashStatus)
			}
		}
	}
	c.fs.ScrubHostEpoch(host, epoch)
	for _, hook := range c.reapHooks {
		hook(env, host, epoch)
	}
	c.emit(env.Now(), "host-reap", fmt.Sprintf("host %v epoch %d", host, epoch))
}

// HostDown reports whether the host is currently crashed.
func (c *Cluster) HostDown(host rpc.HostID) bool {
	ep := c.transport.Endpoint(host)
	return ep != nil && ep.Down()
}

// destroyProcess fail-stops one process that was executing on the crashed
// host: tables and the ledger are settled instantly (the state was in the
// crashed host's memory — there is no orderly teardown to run), stream
// references the host held are scrubbed, and the process activity is
// interrupted so it unwinds without simulating any further work.
func (c *Cluster) destroyProcess(env *sim.Env, p *Process, crashedHost rpc.HostID, epoch rpc.Epoch) {
	if p.state == StateExited || p.crashed {
		return
	}
	p.crashed = true
	p.killed = true
	p.crashEpoch = epoch
	cur := p.cur
	for _, kk := range c.kernels {
		delete(kk.procs, p.pid)
	}
	cur.stats.ProcsCrashed++
	// A process dying mid-migration may already have moved stream
	// references to a surviving target host; release those one by one —
	// the crash scrub below only covers the dead host itself.
	if p.migTarget != nil && p.migTarget.host != crashedHost {
		for i := len(p.migMoved) - 1; i >= 0; i-- {
			c.fs.DropRef(p.migMoved[i], p.migTarget.host)
		}
	}
	p.migTarget, p.migMoved = nil, nil
	streams := p.openStreams()
	if p.space != nil {
		for _, seg := range p.space.Segments() {
			if seg.Backing != nil {
				streams = append(streams, seg.Backing)
			}
		}
	}
	for _, st := range streams {
		st.ScrubHost(crashedHost)
	}
	c.noteEnd(p.pid)
	p.state = StateExited
	p.exitStatus = CrashStatus
	if p.home != cur && p.home.host != crashedHost && !c.deferReap {
		// The home machine survives: record the crash so a waiting parent
		// learns the child's fate. Under deferred reaping the home does not
		// yet know — ReapDeadHost settles the record once a detector fires.
		p.home.recordExit(p.pid, CrashStatus)
	}
	if req := p.migrateReq; req != nil {
		p.migrateReq = nil
		req.done.Complete(nil, fmt.Errorf("%w: %v crashed", ErrNoSuchProcess, p.pid))
	}
	if w := p.contWaiter; w != nil {
		p.contWaiter = nil
		w.Complete(nil, ErrHostCrashed)
	}
	p.exited.Complete(CrashStatus, nil)
	if p.env != nil {
		p.env.Interrupt(ErrHostCrashed)
	}
	c.emit(env.Now(), "proc-crash", fmt.Sprintf("%v %s on %v", p.pid, p.name, crashedHost))
}

// recoverStreams undoes a partial stream transfer when a migration aborts:
// every stream already moved is moved back, newest first. If the normal RPC
// move-back is impossible (the target host crashed — the usual reason for
// the abort), the source kernel repairs the stream state directly, mirroring
// Sprite's post-crash RPC recovery.
func (k *Kernel) recoverStreams(env *sim.Env, moved []*fs.Stream, target *Kernel) {
	for i := len(moved) - 1; i >= 0; i-- {
		st := moved[i]
		if err := target.fsc.MoveStream(env, st, k.host); err != nil {
			k.cluster.fs.RecoverStream(st, target.host, k.host)
		}
	}
}
