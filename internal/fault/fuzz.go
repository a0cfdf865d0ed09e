package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// This file is the seed-driven scenario fuzzer: it composes a random process
// workload (migrations, evictions, files, pipes, forks, remote execs) with a
// random fault schedule (crashes, drops, delays, partitions, migration
// aborts), runs the cluster to quiescence, and checks every cluster-wide
// invariant. A scenario is a pure function of its seed, so any failure
// replays bit for bit from the seed alone.

// Kind enumerates the fault classes the fuzzer schedules.
type Kind int

// Fault classes.
const (
	KindCrash     Kind = iota // crash a workstation; maybe restart later
	KindDrop                  // probabilistic message loss window
	KindDelay                 // probabilistic message latency window
	KindPartition             // isolate one workstation for a window
	KindMigFail               // arm a migration failpoint for a window
	KindReboot                // instantaneous crash-restart: state lost, epoch bumped
)

func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindPartition:
		return "partition"
	case KindMigFail:
		return "mig-fail"
	case KindReboot:
		return "reboot"
	default:
		return "?"
	}
}

// Event is one scheduled fault. Host is a workstation index (0-based);
// servers are never faulted — Sprite's availability argument assumes file
// servers recover on their own terms, and every invariant we check would be
// vacuous with the shared FS gone.
type Event struct {
	Kind  Kind
	Host  int
	At    time.Duration
	Dur   time.Duration // crash: 0 = never restarts
	Prob  float64
	Point string // migration failpoint name for KindMigFail
}

// Scenario is a complete, self-describing fuzz case.
type Scenario struct {
	Seed         int64
	Workstations int
	Procs        int
	// Gossip runs the gossip host selector (daemons plus a claim/release
	// requester, audited by the claim ledger) alongside the process
	// workload, so selector soft state is fuzzed under the same faults.
	Gossip bool
	Events []Event
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d ws=%d procs=%d gossip=%t", sc.Seed, sc.Workstations, sc.Procs, sc.Gossip)
	for _, e := range sc.Events {
		fmt.Fprintf(&b, " [%v w%d at=%v dur=%v p=%.2f %s]", e.Kind, e.Host, e.At, e.Dur, e.Prob, e.Point)
	}
	return b.String()
}

// migPoints is the fault-kind pool for KindMigFail, read from the
// failpoint registry (failpoints.go) so the fuzzer can never arm a point
// the kernel does not consult. Registry order is replay-significant: the
// scenario generator indexes into this slice with a seeded draw.
var migPoints = MigrationFailpoints()

// GenScenario derives a scenario from a seed. Same seed, same scenario.
func GenScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:         seed,
		Workstations: 3 + rng.Intn(3),
		Procs:        4 + rng.Intn(6),
		Gossip:       rng.Intn(2) == 0,
	}
	n := 1 + rng.Intn(4)
	crashed := make(map[int]bool)
	for i := 0; i < n; i++ {
		e := Event{
			Kind: Kind(rng.Intn(6)),
			Host: rng.Intn(sc.Workstations),
			At:   time.Duration(50+rng.Intn(1500)) * time.Millisecond,
			Dur:  time.Duration(200+rng.Intn(1000)) * time.Millisecond,
			Prob: 0.15 + 0.45*rng.Float64(),
		}
		switch e.Kind {
		case KindCrash:
			// One crash per host keeps the up/down timeline unambiguous.
			if crashed[e.Host] {
				continue
			}
			crashed[e.Host] = true
			if rng.Intn(4) == 0 {
				e.Dur = 0 // never comes back
			}
		case KindMigFail:
			e.Point = migPoints[rng.Intn(len(migPoints))]
		case KindReboot:
			// Reboots share the one-fault-per-host budget with crashes so the
			// epoch timeline of any host stays a single, unambiguous step.
			if crashed[e.Host] {
				continue
			}
			crashed[e.Host] = true
			e.Dur = 0 // instantaneous: the host is back before the next event
		}
		sc.Events = append(sc.Events, e)
	}
	return sc
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario   Scenario
	Digest     string        // replay fingerprint: equal digests = identical runs
	Violations []string      // empty = clean run
	Tail       []trace.Event // last cluster events before the run settled; set on failure
}

// Failed reports whether the run violated any invariant.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders the failure for a test log.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %v\n", r.Scenario)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	for _, e := range r.Tail {
		fmt.Fprintf(&b, "  trace: %s\n", e)
	}
	return b.String()
}

// fuzzMaxSim bounds one scenario's virtual time; a run that still has live
// activities at this horizon is reported as a hang.
const fuzzMaxSim = 10 * time.Minute

// fuzzParams widens the RPC retry budget so that every bounded fault window
// (max ~2.5 s) is survivable: the retransmission span must exceed the window,
// or lost messages would turn into spurious state divergence instead of
// exercising recovery.
func fuzzParams() core.Params {
	p := core.DefaultParams()
	p.RPC.MaxRetries = 12
	return p
}

// downDuring reports whether workstation index w is down at time t under the
// scenario's crash schedule.
func (sc Scenario) downDuring(w int, t time.Duration) bool {
	for _, e := range sc.Events {
		if e.Kind != KindCrash || e.Host != w {
			continue
		}
		if t >= e.At && (e.Dur == 0 || t < e.At+e.Dur) {
			return true
		}
	}
	return false
}

// procPlan is one workload process, fully decided before the run starts.
type procPlan struct {
	kind    int // 0 hopper, 1 filer, 2 piper, 3 remote-exec
	startAt time.Duration
	home    int   // workstation index
	targets []int // migration / remote-exec destinations (may be down: abort path)
	pages   int
	shared  bool // filer uses the contended path
}

// KernelObservation is everything externally visible about one scenario
// run: if any field differs between two runs of the same scenario,
// determinism is broken. Trace is the byte-exact event stream, not a
// digest, so divergences point at the first differing event.
type KernelObservation struct {
	RunErr     string
	Order      uint64 // sim.OrderDigest: FNV over the committed (at, seq) stream
	Digest     string // the fuzzer's coarse replay fingerprint
	Trace      string
	Metrics    string
	Violations []string
}

// RunScenario executes one scenario and checks every invariant. It is a pure
// function of the scenario.
func RunScenario(sc Scenario) *Result { return runScenario(sc, nil) }

// runScenario executes sc; a non-nil capture additionally receives the
// run's full observable surface.
func runScenario(sc Scenario, capture *KernelObservation) *Result {
	res := &Result{Scenario: sc}
	fail := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	params := fuzzParams()
	c, err := core.NewCluster(core.Options{
		Workstations: sc.Workstations,
		FileServers:  1,
		Params:       &params,
		Seed:         sc.Seed,
	})
	if err != nil {
		fail("cluster: %v", err)
		return res
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		fail("seed: %v", err)
		return res
	}

	// Tracing costs no simulated time, so recording unconditionally keeps
	// the run identical to an untraced one while giving failure reports the
	// last events before things went wrong.
	lg := trace.New(512)
	if capture != nil {
		// Rerun checks additionally keep the complete event stream:
		// byte-exact traces are the strongest comparison.
		var full strings.Builder
		ring := lg.Func()
		c.SetTrace(func(at time.Duration, kind, detail string) {
			fmt.Fprintf(&full, "%v %s %s\n", at, kind, detail)
			ring(at, kind, detail)
		})
		defer func() { capture.Trace = full.String() }()
	} else {
		c.SetTrace(lg.Func())
	}

	// The plane's private stream is derived from the scenario seed so the
	// whole run replays from one number.
	plane := NewPlane(c, sc.Seed^0x5eedfa17)
	for _, e := range sc.Events {
		host := c.Workstation(e.Host).Host()
		switch e.Kind {
		case KindCrash:
			plane.ScheduleCrash(host, e.At, e.Dur)
		case KindDrop:
			plane.DropMessages(e.At, e.At+e.Dur, e.Prob, host)
		case KindDelay:
			plane.DelayMessages(e.At, e.At+e.Dur, 2*time.Millisecond, e.Prob, host)
		case KindPartition:
			plane.Partition(e.At, e.At+e.Dur, host)
		case KindMigFail:
			plane.FailMigration(e.Point, core.PID{}, e.At, e.At+e.Dur, e.Prob, -1)
		case KindReboot:
			plane.ScheduleReboot(host, e.At)
		}
	}

	// Optionally run the gossip host selector under the same fault
	// schedule: per-host gossip daemons, one claim/release requester, and
	// the claim ledger's audit wired into CheckInvariants. Selector soft
	// state (views, claims, hints) then gets fuzzed by exactly the crash /
	// drop / partition / reboot events the kernel sees.
	var gossip *hostsel.Probabilistic
	if sc.Gossip {
		gp := hostsel.DefaultProbabilisticParams()
		gossip = hostsel.NewProbabilistic(c, gp)
		ledger := hostsel.NewClaimLedger(gossip, c, gp.ClaimLease)
		ledger.Register(c)
		c.Boot("fuzz-hostsel", func(env *sim.Env) error {
			defer gossip.Stop()
			gossip.StartDaemons(env)
			client := c.Workstation(0).Host()
			// Phase one runs inside the fault windows (mostly denials: no
			// host is idle-aged yet, and the faults are live); phase two
			// runs after the idle threshold so grants and releases happen
			// on post-fault state — rebooted hosts, healed partitions.
			for _, startAt := range []time.Duration{500 * time.Millisecond, 70 * time.Second} {
				if wait := startAt - env.Now(); wait > 0 {
					if err := env.Sleep(wait); err != nil {
						return err
					}
				}
				for i := 0; i < 6; i++ {
					got, err := ledger.RequestHosts(env, client, 1)
					if err != nil {
						return err
					}
					if err := env.Sleep(200 * time.Millisecond); err != nil {
						return err
					}
					if len(got) > 0 {
						if err := ledger.Release(env, client, got); err != nil {
							return err
						}
					}
					if err := env.Sleep(100 * time.Millisecond); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}

	// Pre-decide the whole workload from a second derived stream: the sim's
	// own rng is left to the kernel.
	wrng := rand.New(rand.NewSource(sc.Seed ^ 0x740ad))
	plans := make([]procPlan, sc.Procs)
	for i := range plans {
		pl := procPlan{
			kind:    wrng.Intn(4),
			startAt: time.Duration(wrng.Intn(1800)) * time.Millisecond,
			home:    wrng.Intn(sc.Workstations),
			pages:   2 + wrng.Intn(8),
			shared:  wrng.Intn(3) == 0,
		}
		for sc.downDuring(pl.home, pl.startAt) {
			pl.home = (pl.home + 1) % sc.Workstations
		}
		nt := 1 + wrng.Intn(2)
		for j := 0; j < nt; j++ {
			pl.targets = append(pl.targets, wrng.Intn(sc.Workstations))
		}
		plans[i] = pl
	}

	c.Boot("fuzz-driver", func(env *sim.Env) error {
		var procs []*core.Process
		for i, pl := range plans {
			if wait := pl.startAt - env.Now(); wait > 0 {
				if err := env.Sleep(wait); err != nil {
					return err
				}
			}
			if sc.downDuring(pl.home, env.Now()) {
				continue // start-time drift landed in a down window; skip
			}
			k := c.Workstation(pl.home)
			p, err := k.StartProcess(env, fmt.Sprintf("fuzz%d", i), fuzzProgram(c, i, pl), core.ProcConfig{
				Binary: "/bin/prog", CodePages: 2, HeapPages: pl.pages, StackPages: 1,
			})
			if err != nil {
				return fmt.Errorf("start fuzz%d: %w", i, err)
			}
			procs = append(procs, p)
		}
		for _, p := range procs {
			if _, err := p.Exited().Wait(env); err != nil {
				return fmt.Errorf("join %v: %w", p.PID(), err)
			}
		}
		return nil
	})

	rerr := c.Run(fuzzMaxSim)
	if rerr != nil {
		fail("run: %v", rerr)
	}
	if n := c.Sim().LiveActivities(); n > 0 {
		fail("hang: %d activities still live at the %v horizon", n, fuzzMaxSim)
	}
	res.Violations = append(res.Violations, c.CheckInvariants(true)...)

	var started, exited, crashed uint64
	for _, k := range c.Workstations() {
		st := k.Stats()
		started += st.ProcsStarted
		exited += st.ProcsExited
		crashed += st.ProcsCrashed
	}
	res.Digest = fmt.Sprintf("t=%v calls=%d retries=%d timeouts=%d injected=%d started=%d exited=%d crashed=%d",
		c.Sim().Now(), c.Transport().TotalCalls(), c.Transport().Retries(), c.Transport().Timeouts(),
		plane.Injected(), started, exited, crashed)
	if gossip != nil {
		st := gossip.Stats()
		res.Digest += fmt.Sprintf(" hostsel: req=%d granted=%d conflicts=%d msgs=%d",
			st.Requests, st.Granted, st.Conflicts, st.Messages)
	}
	if res.Failed() {
		res.Tail = lg.Tail(20)
	}
	if capture != nil {
		if rerr != nil {
			capture.RunErr = rerr.Error()
		}
		capture.Order = c.Sim().OrderDigest()
		capture.Digest = res.Digest
		capture.Metrics = c.MetricsSnapshot().Text()
		capture.Violations = append([]string(nil), res.Violations...)
	}
	return res
}

// fuzzProgram builds one workload process. Fault-induced errors (crashes,
// kills, aborted migrations, severed pipes) are expected outcomes, so every
// step tolerates failure and falls through to a normal exit — the invariant
// checker, not the program, decides whether the kernel misbehaved.
func fuzzProgram(c *core.Cluster, i int, pl procPlan) core.Program {
	target := func(j int) rpc.HostID {
		return c.Workstation(pl.targets[j%len(pl.targets)]).Host()
	}
	switch pl.kind {
	case 0: // hopper: compute and hop between hosts
		return func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, pl.pages, true); err != nil {
				return nil
			}
			for j := 0; j < len(pl.targets); j++ {
				if err := ctx.Compute(40 * time.Millisecond); err != nil {
					return nil
				}
				_ = ctx.Migrate(target(j)) // may abort; life goes on here
			}
			if err := ctx.Compute(40 * time.Millisecond); err != nil {
				return nil
			}
			return nil
		}
	case 1: // filer: file I/O across a migration, sometimes contended
		return func(ctx *core.Ctx) error {
			path := fmt.Sprintf("/data/f%d", i)
			if pl.shared {
				path = "/data/shared"
			}
			fd, err := ctx.Open(path, fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return nil
			}
			if _, err := ctx.Write(fd, make([]byte, 2048)); err != nil {
				return nil
			}
			_ = ctx.Migrate(target(0))
			if _, err := ctx.Write(fd, make([]byte, 1024)); err != nil {
				return nil
			}
			if err := ctx.Seek(fd, 0); err != nil {
				return nil
			}
			if _, err := ctx.Read(fd, 1024); err != nil {
				return nil
			}
			_ = ctx.Close(fd)
			return nil
		}
	case 2: // piper: parent writes, forked child reads across a migration
		return func(ctx *core.Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return nil
			}
			_, err = ctx.Fork(fmt.Sprintf("fuzz%d-rd", i), func(cc *core.Ctx) error {
				_ = cc.Close(wfd)
				_ = cc.Migrate(target(0))
				for {
					data, err := cc.Read(rfd, 512)
					if err != nil || len(data) == 0 {
						break // EOF, severed pipe, or kill
					}
				}
				_ = cc.Close(rfd)
				return nil
			}, core.ProcConfig{Binary: "/bin/prog", CodePages: 1, HeapPages: 1, StackPages: 1})
			if err != nil {
				return nil
			}
			_ = ctx.Close(rfd)
			for j := 0; j < 4; j++ {
				if _, err := ctx.Write(wfd, make([]byte, 256)); err != nil {
					break
				}
				if err := ctx.Compute(10 * time.Millisecond); err != nil {
					break
				}
			}
			_ = ctx.Close(wfd)
			_, _, _ = ctx.Wait()
			return nil
		}
	default: // remote exec: the pmake path, exec-time migration
		return func(ctx *core.Ctx) error {
			_, err := ctx.ForkRemoteExec(fmt.Sprintf("fuzz%d-rx", i), func(cc *core.Ctx) error {
				if err := cc.TouchHeap(0, 2, true); err != nil {
					return nil
				}
				if err := cc.Compute(30 * time.Millisecond); err != nil {
					return nil
				}
				return nil
			}, core.ProcConfig{Binary: "/bin/prog", CodePages: 1, HeapPages: 2, StackPages: 1}, target(0))
			if err != nil {
				return nil
			}
			_, _, _ = ctx.Wait()
			return nil
		}
	}
}

// Shrink greedily minimizes a failing scenario: drop fault events one at a
// time, then halve the process count, keeping every step that still fails.
// Because runs are deterministic, "still fails" is exact, not statistical.
func Shrink(sc Scenario) (Scenario, *Result) {
	res := RunScenario(sc)
	if !res.Failed() {
		return sc, res
	}
	cur := sc
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Events); i++ {
			cand := cur
			cand.Events = make([]Event, 0, len(cur.Events)-1)
			cand.Events = append(cand.Events, cur.Events[:i]...)
			cand.Events = append(cand.Events, cur.Events[i+1:]...)
			if r := RunScenario(cand); r.Failed() {
				cur, res = cand, r
				changed = true
				break
			}
		}
		if !changed && cur.Gossip {
			cand := cur
			cand.Gossip = false
			if r := RunScenario(cand); r.Failed() {
				cur, res = cand, r
				changed = true
			}
		}
		if !changed && cur.Procs > 1 {
			cand := cur
			cand.Procs = cur.Procs / 2
			if r := RunScenario(cand); r.Failed() {
				cur, res = cand, r
				changed = true
			}
		}
	}
	return cur, res
}
