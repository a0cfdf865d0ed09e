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

// Errors visible to programs and kernels.
var (
	// ErrKilled is delivered to a program when its process is killed.
	ErrKilled = errors.New("core: process killed")
	// ErrNoSuchProcess is returned for operations on unknown pids.
	ErrNoSuchProcess = errors.New("core: no such process")
	// ErrNotMigratable is returned when a process refuses migration (e.g.
	// it uses shared writable memory, which Sprite disallows migrating).
	ErrNotMigratable = errors.New("core: process not migratable")
	// ErrBadFD is returned for operations on invalid file descriptors.
	ErrBadFD = errors.New("core: bad file descriptor")
	// ErrVersionMismatch is returned when source and target kernels have
	// incompatible migration versions.
	ErrVersionMismatch = errors.New("core: migration version mismatch")
	// ErrNoChildren is returned by Wait when the process has no children.
	ErrNoChildren = errors.New("core: no children to wait for")
	// ErrHostCrashed is delivered to a program when the host it runs on (or
	// its home machine) crashes under fault injection.
	ErrHostCrashed = errors.New("core: host crashed")

	// errExit is the internal unwinding sentinel used by Ctx.Exit.
	errExit = errors.New("core: process exited")
)

// CrashStatus is the exit status recorded for a process destroyed by a host
// crash (distinct from the -1 used for kills and program errors).
const CrashStatus = -2

// PID identifies a process. Sprite process ids encode the home machine: a
// process keeps its pid across migrations and the home field is how other
// kernels route process-specific operations.
type PID struct {
	Home rpc.HostID
	Seq  int
}

// String renders the pid in "host.seq" form.
func (p PID) String() string { return fmt.Sprintf("%v.%d", p.Home, p.Seq) }

// NilPID is the zero PID.
var NilPID = PID{}

// ProcessState describes a process's lifecycle.
type ProcessState int

// Process states.
const (
	StateRunning ProcessState = iota + 1
	StateMigrating
	StateExited
)

func (s ProcessState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateExited:
		return "exited"
	default:
		return "?"
	}
}

// Program is the body of a simulated user process. It runs as one sim
// activity and interacts with the world only through its Ctx — each Ctx
// method is a kernel call, dispatched per the Appendix-A handling table, so
// a program behaves identically before and after migration.
type Program func(ctx *Ctx) error

// migrationRequest is a pending migration set on a process; the process
// performs it at its next migration point (kernel-call entry or compute
// quantum boundary; at exec time when AtExec is set).
type migrationRequest struct {
	target *Kernel
	atExec bool
	reason string
	done   *sim.Future
}

// Process is a simulated Sprite user process.
type Process struct {
	pid    PID
	name   string
	uid    string
	state  ProcessState
	parent PID
	pgrp   PID // process group (leader's pid); inherited across fork

	home *Kernel // never changes: the transparency anchor
	cur  *Kernel // changes on migration

	// homeEpoch is the home host's boot epoch when the process started. The
	// reaping pass uses it to tell this incarnation's processes from ones
	// started after a reboot of the same address.
	homeEpoch rpc.Epoch
	// crashEpoch, for a crash-destroyed process, is the boot epoch of the
	// host it died on (set by destroyProcess; guards late reaping).
	crashEpoch rpc.Epoch

	space *vm.AddressSpace
	files []*fs.Stream // descriptor table; nil entries are closed fds

	program Program
	args    []string

	exited     *sim.Future // resolves to exit status (int)
	exitStatus int

	killed     bool
	crashed    bool     // destroyed by a host crash; the activity must unwind silently
	env        *sim.Env // the process activity's Env, for crash interruption
	pending    []Signal
	handlers   map[Signal]SignalHandler
	contWaiter *sim.Future
	cwd        string
	migrateReq *migrationRequest
	// In-flight migration progress, maintained so crash injection can
	// release stream references a dead mid-migration process already moved
	// to a surviving target host.
	migTarget *Kernel
	migMoved  []*fs.Stream
	// sharedMemory marks the process as using shared writable memory,
	// which Sprite refuses to migrate.
	sharedMemory bool
	// evictable processes may be migrated away by host reclaiming.
	evictable bool

	migrations int
	cpuUsed    time.Duration
	created    time.Duration
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the lifecycle state.
func (p *Process) State() ProcessState { return p.state }

// Home returns the home kernel.
func (p *Process) Home() *Kernel { return p.home }

// Current returns the kernel where the process currently executes.
func (p *Process) Current() *Kernel { return p.cur }

// Foreign reports whether the process executes away from home.
func (p *Process) Foreign() bool { return p.cur != p.home }

// Migrations returns how many times the process has migrated.
func (p *Process) Migrations() int { return p.migrations }

// HomeEpoch returns the home host's boot epoch when the process started.
func (p *Process) HomeEpoch() rpc.Epoch { return p.homeEpoch }

// CrashEpoch returns, for a crash-destroyed process, the boot epoch of the
// host it died on (0 otherwise).
func (p *Process) CrashEpoch() rpc.Epoch { return p.crashEpoch }

// Space returns the process's address space.
func (p *Process) Space() *vm.AddressSpace { return p.space }

// CPUUsed returns accumulated compute time.
func (p *Process) CPUUsed() time.Duration { return p.cpuUsed }

// SetShared marks the process as using shared writable memory (it becomes
// non-migratable, as in Sprite).
func (p *Process) SetShared(shared bool) { p.sharedMemory = shared }

// SetEvictable controls whether eviction may move this process.
func (p *Process) SetEvictable(e bool) { p.evictable = e }

// Exited returns a future resolving to the exit status.
func (p *Process) Exited() *sim.Future { return p.exited }

// openStreams returns the distinct open streams in the descriptor table.
func (p *Process) openStreams() []*fs.Stream {
	seen := make(map[*fs.Stream]bool)
	var out []*fs.Stream
	for _, st := range p.files {
		if st != nil && !seen[st] {
			seen[st] = true
			out = append(out, st)
		}
	}
	return out
}

// Ctx is a program's window onto the kernel: its system call interface.
type Ctx struct {
	proc *Process
	env  *sim.Env
	// forwarded marks that the current kernel call already paid its trip
	// home (set by the forward-everything baseline to avoid double
	// charging calls that are home-forwarded anyway).
	forwarded bool
}

// Process returns the calling process.
func (c *Ctx) Process() *Process { return c.proc }

// Env returns the simulation environment (for Sleep in workload code).
func (c *Ctx) Env() *sim.Env { return c.env }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.env.Now() }
