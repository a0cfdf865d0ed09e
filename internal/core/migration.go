package core

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/vm"
)

// MigrationRecord documents one completed migration, component by
// component — the breakdown the thesis's performance chapter tabulates.
type MigrationRecord struct {
	PID    PID
	From   rpc.HostID
	To     rpc.HostID
	Reason string
	Start  time.Duration

	// Total is wall time of the whole migration; Freeze is the part during
	// which the process could not execute anywhere (for pre-copy they
	// differ).
	Total  time.Duration
	Freeze time.Duration

	// NegotiateTime, VMTime, FileTime, PCBTime, ResumeTime decompose
	// Total: the handshake, the VM strategy's work, the open-stream moves,
	// the PCB shipment, and the tail (home-machine update plus the final
	// switch-over).
	NegotiateTime time.Duration
	VMTime        time.Duration
	FileTime      time.Duration
	PCBTime       time.Duration
	ResumeTime    time.Duration

	// VMBytes counts bytes moved at migration time (flush or direct copy).
	VMBytes int
	// PagesFlushed / PagesCopied detail the VM strategy's work.
	PagesFlushed int
	PagesCopied  int
	// Files is the number of open streams transferred.
	Files int
	// ExecTime marks an exec-time migration (no VM transfer).
	ExecTime bool
	// Residual marks a residual dependency left on the source host.
	Residual bool
	// Strategy names the VM transfer strategy used.
	Strategy string

	// Batched marks a migration whose VM transfer used the bulk data
	// plane; BatchRuns / BatchFragments / BatchRetransmits detail it
	// (all zero on the legacy per-page path).
	Batched          bool
	BatchRuns        int
	BatchFragments   int
	BatchRetransmits int
}

// RequestMigration asks for p to migrate to target at its next migration
// point. The returned future resolves to the new host id (or an error). A
// process using shared writable memory refuses, as in Sprite.
func (k *Kernel) RequestMigration(p *Process, target *Kernel, reason string) *sim.Future {
	done := sim.NewFuture(k.cluster.sim)
	switch {
	case p.state == StateExited:
		done.Complete(nil, fmt.Errorf("%w: %v", ErrNoSuchProcess, p.pid))
	case p.sharedMemory:
		done.Complete(nil, fmt.Errorf("%w: %v uses shared writable memory", ErrNotMigratable, p.pid))
	case p.migrateReq != nil:
		done.Complete(nil, fmt.Errorf("%w: %v migration already pending", ErrNotMigratable, p.pid))
	case target == p.cur:
		done.Complete(target.host, nil)
	default:
		p.migrateReq = &migrationRequest{target: target, reason: reason, done: done}
	}
	return done
}

// RequestExecMigration marks p to migrate to target at its next exec — the
// cheap remote-invocation path (no VM transfer).
func (k *Kernel) RequestExecMigration(p *Process, target *Kernel, reason string) *sim.Future {
	done := sim.NewFuture(k.cluster.sim)
	switch {
	case p.state == StateExited:
		done.Complete(nil, fmt.Errorf("%w: %v", ErrNoSuchProcess, p.pid))
	case p.migrateReq != nil:
		done.Complete(nil, fmt.Errorf("%w: %v migration already pending", ErrNotMigratable, p.pid))
	default:
		p.migrateReq = &migrationRequest{target: target, reason: reason, done: done, atExec: true}
	}
	return done
}

// migrateNow validates and performs a migration inline, in p's own activity
// (used by the explicit migrate call, which is itself a migration point).
func (k *Kernel) migrateNow(env *sim.Env, p *Process, target *Kernel, reason string) error {
	switch {
	case p.state == StateExited:
		return fmt.Errorf("%w: %v", ErrNoSuchProcess, p.pid)
	case p.sharedMemory:
		return fmt.Errorf("%w: %v uses shared writable memory", ErrNotMigratable, p.pid)
	case p.migrateReq != nil:
		return fmt.Errorf("%w: %v migration already pending", ErrNotMigratable, p.pid)
	case target == p.cur:
		return nil
	}
	return k.migrateSelf(env, p, &migrationRequest{target: target, reason: reason})
}

// migrateSelf performs a full migration of p from this kernel to
// req.target, executed in p's own activity at a migration point. The order
// follows the thesis: negotiate, transfer virtual memory, transfer open
// streams (with I/O server coordination), transfer the PCB, update the home
// machine, resume on the target.
func (k *Kernel) migrateSelf(env *sim.Env, p *Process, req *migrationRequest) error {
	target := req.target
	if target == k {
		return nil
	}
	rec := MigrationRecord{
		PID:      p.pid,
		From:     k.host,
		To:       target.host,
		Reason:   req.reason,
		Start:    env.Now(),
		Strategy: k.strategy.Name(),
	}
	p.state = StateMigrating
	t0 := env.Now()
	// Expose in-flight progress so crash injection can release stream
	// references already moved to the target if this host dies mid-flight.
	p.migTarget = target
	defer func() { p.migTarget, p.migMoved = nil, nil }()

	mm := newMigMeter(k.cluster.metrics)

	// abort undoes a partial migration so the process resumes on the
	// source: streams already moved come back, a PCB already installed at
	// the target is discarded there. A process destroyed by a crash of its
	// own host skips recovery — there is nothing left to resume. The
	// metrics rollback always runs: an aborted migration must not leave a
	// phase timing or a dangling in-flight count behind.
	var moved []*fs.Stream
	abort := func(err error) error {
		mm.abort(env)
		k.stats.MigrationsAborted++
		if p.crashed {
			return err
		}
		if len(moved) > 0 {
			k.recoverStreams(env, moved, target)
		}
		if _, installed := target.procs[p.pid]; installed {
			delete(target.procs, p.pid)
			target.stats.MigrationsIn--
		}
		p.state = StateRunning
		return err
	}

	// 1. Handshake: version check and skeleton allocation at the target.
	mm.next(env, "negotiate")
	if err := k.migInit(env, p, target); err != nil {
		return abort(err)
	}
	if err := k.cluster.failAt(env, "mig.init", p.pid); err != nil {
		return abort(err)
	}
	rec.NegotiateTime = mm.next(env, "vm."+rec.Strategy)

	// 2 + 3. Virtual memory and open streams. With the batched data plane's
	// overlap on, the stream transfer runs in its own activity concurrent
	// with the VM transfer: both phases still tile Total exactly because the
	// vm span closes retroactively at the instant the VM work finished and
	// the streams span covers only the tail that outlived it (zero when the
	// streams won the race).
	overlap := k.params.Batch.Enabled && k.params.Batch.OverlapStreams
	tVM := env.Now()
	var strmDone *sim.Future
	if overlap {
		strmDone = sim.NewFuture(k.cluster.sim)
		env.Spawn(fmt.Sprintf("mig-streams-%v", p.pid), func(senv *sim.Env) error {
			mv, serr := k.transferStreams(senv, p, target, &rec)
			strmDone.Complete(mv, serr)
			return nil
		})
	}
	vmErr := k.strategy.Transfer(env, k, target, p, &rec)
	if vmErr != nil {
		vmErr = fmt.Errorf("vm transfer: %w", vmErr)
	} else {
		vmErr = k.cluster.failAt(env, "mig.vm", p.pid)
	}
	tVMEnd := env.Now()
	if overlap {
		// Join the stream mover before acting on any error: abort recovery
		// needs the final moved list, and the mover must not outlive the
		// migration it belongs to.
		mv, serr := strmDone.Wait(env)
		if ms, ok := mv.([]*fs.Stream); ok {
			moved = ms
		}
		if vmErr != nil {
			return abort(vmErr)
		}
		rec.VMTime = mm.nextAt("streams", tVMEnd)
		if serr != nil {
			return abort(fmt.Errorf("stream transfer: %w", serr))
		}
		if err := k.cluster.failAt(env, "mig.streams", p.pid); err != nil {
			return abort(err)
		}
		rec.FileTime = env.Now() - tVMEnd
	} else {
		if vmErr != nil {
			return abort(vmErr)
		}
		rec.VMTime = env.Now() - tVM
		mm.next(env, "streams")
		tF := env.Now()
		var serr error
		if moved, serr = k.transferStreams(env, p, target, &rec); serr != nil {
			return abort(fmt.Errorf("stream transfer: %w", serr))
		}
		if err := k.cluster.failAt(env, "mig.streams", p.pid); err != nil {
			return abort(err)
		}
		rec.FileTime = env.Now() - tF
	}
	mm.next(env, "pcb")

	// 4. PCB and residual untyped state.
	tP := env.Now()
	if err := k.transferPCB(env, p, target); err != nil {
		return abort(fmt.Errorf("pcb transfer: %w", err))
	}
	if err := k.cluster.failAt(env, "mig.pcb", p.pid); err != nil {
		return abort(err)
	}
	rec.PCBTime = env.Now() - tP
	mm.next(env, "resume")

	// 5. Tell the home machine where the process now lives.
	if p.home != target {
		if _, err := k.ep.Call(env, p.home.host, "k.updateLoc", updateLocArgs{
			PID: p.pid, Loc: target.host,
		}, 32); err != nil {
			return abort(fmt.Errorf("update home: %w", err))
		}
	} else if hr := p.home.homeRecs[p.pid]; hr != nil {
		hr.location = target.host
	}

	// The target may have crashed after the PCB landed; resuming there
	// would run the process on a dead host.
	if k.cluster.HostDown(target.host) {
		if hr := p.home.homeRecs[p.pid]; hr != nil {
			hr.location = k.host
		}
		return abort(fmt.Errorf("%w: target %v crashed mid-migration", rpc.ErrHostDown, target.host))
	}

	// 6. Switch the process over and resume.
	delete(k.procs, p.pid)
	k.stats.MigrationsOut++
	p.cur = target
	p.migrations++
	p.state = StateRunning
	if p.space != nil {
		p.space.SetPagerAll(k.strategy.TargetPager(k, target))
	}

	rec.ResumeTime = mm.complete(env)
	rec.Total = env.Now() - t0
	if rec.Freeze == 0 {
		rec.Freeze = rec.Total
	} else {
		// A strategy that set its own freeze (pre-copy) froze the process
		// only for its final pass; stream and PCB transfer freeze it too.
		rec.Freeze += rec.FileTime + rec.PCBTime
	}
	mm.observeTotals(&rec)
	k.records = append(k.records, rec)
	k.cluster.emit(env.Now(), "migration",
		fmt.Sprintf("%v %v->%v (%s, %s) total=%v vm=%dB files=%d",
			p.pid, rec.From, rec.To, rec.Reason, rec.Strategy, rec.Total, rec.VMBytes, rec.Files))
	return nil
}

// migrateForExec performs the exec-time variant: no VM transfer at all; the
// new image is built on the target. Only streams, PCB, and the exec
// arguments move.
func (k *Kernel) migrateForExec(env *sim.Env, p *Process, req *migrationRequest) error {
	target := req.target
	if target == k {
		return nil
	}
	rec := MigrationRecord{
		PID:      p.pid,
		From:     k.host,
		To:       target.host,
		Reason:   req.reason,
		Start:    env.Now(),
		ExecTime: true,
		Strategy: "exec-time",
	}
	p.state = StateMigrating
	t0 := env.Now()
	p.migTarget = target
	defer func() { p.migTarget, p.migMoved = nil, nil }()

	mm := newMigMeter(k.cluster.metrics)

	// Same recovery contract as migrateSelf: an aborted exec-time migration
	// resumes the process on the source (where exec rebuilds the image
	// locally instead). As there, the metrics rollback runs even for a
	// crash-destroyed process.
	var moved []*fs.Stream
	abort := func(err error) error {
		mm.abort(env)
		k.stats.MigrationsAborted++
		if p.crashed {
			return err
		}
		if len(moved) > 0 {
			k.recoverStreams(env, moved, target)
		}
		if _, installed := target.procs[p.pid]; installed {
			delete(target.procs, p.pid)
			target.stats.MigrationsIn--
		}
		p.state = StateRunning
		return err
	}

	mm.next(env, "negotiate")
	if err := k.migInit(env, p, target); err != nil {
		return abort(err)
	}
	if err := k.cluster.failAt(env, "mig.init", p.pid); err != nil {
		return abort(err)
	}
	// Discard the old image here; nothing of it moves.
	if err := p.discardSpace(env); err != nil {
		return abort(err)
	}
	rec.NegotiateTime = mm.next(env, "streams")
	tF := env.Now()
	var serr error
	if moved, serr = k.transferStreams(env, p, target, &rec); serr != nil {
		return abort(fmt.Errorf("stream transfer: %w", serr))
	}
	if err := k.cluster.failAt(env, "mig.streams", p.pid); err != nil {
		return abort(err)
	}
	rec.FileTime = env.Now() - tF
	mm.next(env, "pcb")
	tP := env.Now()
	if err := k.transferPCB(env, p, target); err != nil {
		return abort(fmt.Errorf("pcb transfer: %w", err))
	}
	if err := k.cluster.failAt(env, "mig.pcb", p.pid); err != nil {
		return abort(err)
	}
	// Exec arguments ride along with the PCB.
	argBytes := 0
	for _, a := range p.args {
		argBytes += len(a)
	}
	if argBytes > 0 {
		if err := k.cluster.net.Send(env, argBytes); err != nil {
			return abort(err)
		}
	}
	rec.PCBTime = env.Now() - tP
	mm.next(env, "resume")
	if p.home != target {
		if _, err := k.ep.Call(env, p.home.host, "k.updateLoc", updateLocArgs{
			PID: p.pid, Loc: target.host,
		}, 32); err != nil {
			return abort(fmt.Errorf("update home: %w", err))
		}
	} else if hr := p.home.homeRecs[p.pid]; hr != nil {
		hr.location = target.host
	}
	// The target may have crashed after the PCB landed; resuming there
	// would run the process on a dead host.
	if k.cluster.HostDown(target.host) {
		if hr := p.home.homeRecs[p.pid]; hr != nil {
			hr.location = k.host
		}
		return abort(fmt.Errorf("%w: target %v crashed mid-migration", rpc.ErrHostDown, target.host))
	}
	delete(k.procs, p.pid)
	k.stats.MigrationsOut++
	k.stats.RemoteExecs++
	p.cur = target
	p.migrations++
	p.state = StateRunning
	rec.ResumeTime = mm.complete(env)
	rec.Total = env.Now() - t0
	rec.Freeze = rec.Total
	mm.observeTotals(&rec)
	k.records = append(k.records, rec)
	k.cluster.emit(env.Now(), "exec-migration",
		fmt.Sprintf("%v %v->%v (%s) total=%v", p.pid, rec.From, rec.To, rec.Reason, rec.Total))
	return nil
}

func (k *Kernel) migInit(env *sim.Env, p *Process, target *Kernel) error {
	if err := k.cpu.Compute(env, k.params.MigInitCPU); err != nil {
		return err
	}
	if _, err := k.ep.Call(env, target.host, "k.migInit", migInitArgs{
		PID: p.pid, Version: k.migrationVersion,
	}, k.params.MigInitBytes); err != nil {
		return fmt.Errorf("migration handshake: %w", err)
	}
	return nil
}

// transferStreams moves every open stream (including VM backing streams) to
// the target host, with per-file kernel bookkeeping cost on top of the I/O
// server coordination performed by the file system. It returns the streams
// actually moved so an aborting migration can move them back — on error the
// partial list covers everything transferred before the failure.
func (k *Kernel) transferStreams(env *sim.Env, p *Process, target *Kernel, rec *MigrationRecord) ([]*fs.Stream, error) {
	streams := p.openStreams()
	if p.space != nil {
		for _, seg := range p.space.Segments() {
			if seg.Backing != nil {
				streams = append(streams, seg.Backing)
			}
		}
	}
	var moved []*fs.Stream
	for _, st := range streams {
		if err := k.cpu.Compute(env, k.params.MigPerFileCPU); err != nil {
			return moved, err
		}
		if err := k.fsc.MoveStream(env, st, target.host); err != nil {
			return moved, fmt.Errorf("move %s: %w", st.Path, err)
		}
		moved = append(moved, st)
		p.migMoved = moved
		rec.Files++
	}
	return moved, nil
}

// transferPCB ships the process control block and installs the process in
// the target's tables.
func (k *Kernel) transferPCB(env *sim.Env, p *Process, target *Kernel) error {
	if err := k.cpu.Compute(env, k.params.MigPCBCPU); err != nil {
		return err
	}
	if _, err := k.ep.Call(env, target.host, "k.migPCB", migPCBArgs{
		PID: p.pid, Proc: p,
	}, k.params.MigPCBBytes); err != nil {
		return fmt.Errorf("pcb transfer: %w", err)
	}
	return nil
}

// EvictAll migrates every evictable foreign process off this host and
// waits for the evictions to complete. Sprite triggers this when a
// workstation's owner returns. The destination is the process's home
// machine unless an eviction target policy is installed (the re-select
// ablation).
func (k *Kernel) EvictAll(env *sim.Env) error {
	var waits []*sim.Future
	for _, p := range k.ForeignProcesses() {
		if !p.evictable || p.state == StateExited {
			continue
		}
		target := p.home
		if k.evictTarget != nil {
			if t := k.evictTarget(env, p); t != nil && t != k {
				target = t
			}
		}
		waits = append(waits, k.RequestMigration(p, target, "eviction"))
		k.stats.Evictions++
		k.cluster.emit(env.Now(), "eviction", fmt.Sprintf("%v evicted from %v to %v", p.pid, k.host, target.host))
	}
	for _, w := range waits {
		if _, err := w.Wait(env); err != nil {
			// A process that exits before reaching its migration point
			// has vacated the host on its own; that is a successful
			// eviction, not a failure.
			if errors.Is(err, ErrNoSuchProcess) {
				continue
			}
			return fmt.Errorf("eviction: %w", err)
		}
	}
	return nil
}

// SetEvictionTarget installs a policy choosing where evicted processes go
// (nil, the default, evicts home as Sprite does; returning nil from the
// policy also falls back to home).
func (k *Kernel) SetEvictionTarget(f func(env *sim.Env, p *Process) *Kernel) {
	k.evictTarget = f
}

// --- remote exec convenience (the pmake path) ---

// ForkRemoteExec forks a child that immediately execs `name` on the target
// host: fork locally, migrate at exec time (no VM transfer), then build the
// new image remotely. This is how pmake and other load-sharing applications
// use migration in Sprite.
func (c *Ctx) ForkRemoteExec(name string, prog Program, cfg ProcConfig, target rpc.HostID) (*Process, error) {
	tk := c.proc.cur.cluster.KernelOn(target)
	if tk == nil {
		return nil, fmt.Errorf("%w: %v", rpc.ErrNoHost, target)
	}
	trampoline := func(cc *Ctx) error {
		return cc.Exec(name, prog, cfg)
	}
	child, err := c.Fork(name, trampoline, ProcConfig{})
	if err != nil {
		return nil, err
	}
	// Pend the exec-time migration before the child reaches its exec.
	c.proc.cur.RequestExecMigration(child, tk, "remote-exec")
	return child, nil
}

// corPager satisfies post-migration faults by pulling pages from the source
// host (Accent/Zayas copy-on-reference).
type corPager struct {
	src *Kernel
	dst *Kernel
	pid PID
}

var _ vm.Pager = (*corPager)(nil)

func (p *corPager) PageIn(env *sim.Env, seg *vm.Segment, page int) error {
	_, err := p.dst.ep.Call(env, p.src.host, "k.fetchPage", fetchPageArgs{PID: p.pid, Page: page}, 32)
	return err
}
