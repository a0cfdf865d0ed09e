package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/fault"
	"sprite/internal/fleet"
	"sprite/internal/fs"
	"sprite/internal/hostsel"
	"sprite/internal/pmake"
	"sprite/internal/recovery"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// A workload is a family of episode configurations. Episode k of a run uses
// configuration k mod configs, with inputs drawn from a seed derived from
// the run seed and that configuration, so every configuration repeats
// bit-for-bit within a run and each repeat is checked against the first.
type workload struct {
	name    string
	configs int
	// build constructs the episode's cluster through ep.newCluster, seeds it
	// through ep.seeding, boots its activities, and sets ep.check. It must
	// not run the cluster.
	build func(ep *episode) error
}

var workloads = []workload{
	{
		name:    "pmake",
		configs: 4,
		build:   buildPmake,
	},
	{
		name:    "migrate",
		configs: 4,
		build:   buildMigrate,
	},
	{
		name:    "harvest",
		configs: 4,
		build:   buildHarvest,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// between returns a uniform integer in [lo, hi].
func between(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

// buildPmake: one synthetic-project compile over 8–12 workstations. The
// pmake process asks the central migd (on the root file server) for every
// idle host, then compiles with exec-time remote execution onto them.
func buildPmake(ep *episode) error {
	hosts := ep.sized(2, 8, 10, 12, 9)
	proj := pmake.DefaultProjectParams()
	proj.Units = ep.sized(2, 20, 24, 32, 28)
	proj.CompileCPU = 400 * time.Millisecond // each unit's CPU jitters ±25% by seed
	proj.LinkCPU = 600 * time.Millisecond
	proj.Headers = ep.ladder(12, 16, 24, 20)
	proj.LookupsPerUnit = ep.ladder(40, 60, 80, 50)
	proj.HeadersRead = ep.ladder(3, 4, 6, 5)

	c, err := ep.newCluster(core.Options{Workstations: hosts, FileServers: 1, Seed: ep.seed})
	if err != nil {
		return err
	}
	var mf *pmake.Makefile
	if err := ep.seeding(func() error {
		for _, bin := range []string{"/bin/cc", "/bin/pmake"} {
			if err := c.SeedBinary(bin, 256<<10); err != nil {
				return err
			}
		}
		var err error
		mf, err = pmake.SyntheticProject(c, rand.New(rand.NewSource(ep.seed)), proj)
		return err
	}); err != nil {
		return err
	}
	migd := hostsel.NewCentral(c, c.Servers()[0].Host(), hostsel.DefaultCentralParams())
	ep.sel = migd
	ws := c.Workstations()
	var targets []*pmake.Target
	for _, t := range mf.Targets() {
		if t.Job != nil { // sources have no job
			targets = append(targets, t)
		}
	}
	var res *pmake.Result
	var granted int

	c.Boot("pmake-main", func(env *sim.Env) error {
		// Each idle workstation's load daemon reports in before the build.
		for _, k := range ws[1:] {
			if err := migd.NotifyAvailability(env, k.Host(), true); err != nil {
				return err
			}
		}
		p, err := ws[0].StartProcess(env, "pmake", func(ctx *core.Ctx) error {
			var hosts []rpc.HostID
			if err := ep.inSim(ctx.Env(), "RequestHosts", func() error {
				var err error
				hosts, err = migd.RequestHosts(ctx.Env(), ctx.Process().Home().Host(), len(ws)-1)
				return err
			}); err != nil {
				return err
			}
			granted = len(hosts)
			if err := ep.inSim(ctx.Env(), "pmake.Run", func() error {
				var err error
				res, err = pmake.Run(ctx, mf, pmake.Options{Force: true, Hosts: hosts, LocalJobs: 1})
				return err
			}); err != nil {
				return err
			}
			// Every target must exist at its declared size.
			for _, t := range targets {
				size, err := ctx.Stat(t.Job.Output)
				if err != nil {
					return fmt.Errorf("target %s: %w", t.Name, err)
				}
				if size != t.Job.OutputSize {
					return fmt.Errorf("target %s: size %d, want %d", t.Name, size, t.Job.OutputSize)
				}
			}
			return migd.Release(ctx.Env(), ctx.Process().Home().Host(), hosts)
		}, core.ProcConfig{Binary: "/bin/pmake", CodePages: 8, HeapPages: 16, StackPages: 2})
		if err != nil {
			return err
		}
		return ep.join(env, p)
	})
	ep.check = func() error {
		if res == nil {
			return fmt.Errorf("pmake did not finish")
		}
		if res.Jobs != len(targets) || res.Skipped != 0 {
			return fmt.Errorf("pmake built %d of %d targets (%d skipped)", res.Jobs, len(targets), res.Skipped)
		}
		if granted != len(ws)-1 {
			return fmt.Errorf("migd granted %d of %d idle hosts", granted, len(ws)-1)
		}
		ep.count("pmake.jobs", float64(res.Jobs))
		ep.count("pmake.remote_jobs", float64(res.RemoteJobs))
		ep.count("pmake.makespan_virt_s", res.Makespan.Seconds())
		// Each job computes once; the harness itself computes nothing here.
		ep.count("cpu.compute_calls", float64(res.Jobs))
		return nil
	}
	return nil
}

// migrateStrategies is the rotation of VM transfer strategies.
var migrateStrategies = []core.TransferStrategy{
	core.SpriteFlushStrategy{},
	core.FullCopyStrategy{},
	core.CopyOnReferenceStrategy{},
	core.PreCopyStrategy{RedirtyPagesPerSec: 100},
}

// buildMigrate: processes with multi-MB dirty heaps hop across 8
// workstations. Each opens a file on one of two file servers and forks a
// child that keeps the stream open at home, so the access position is a
// shared (server-shadowed) offset once the parent leaves. After every hop
// the process asks home for the time (a forwarded call) and re-reads the
// whole file, checking every byte it has written so far. Once its holder has
// exited, it migrates back home and checks the whole file once more.
func buildMigrate(ep *episode) error {
	rng := ep.rng
	const nws = 8
	procs := ep.sized(1, 4, 6, 5, 6)
	hops := ep.sized(1, 3, 5, 4, 4)
	heapPages := ep.sized(8, 128, 256, 384, 192) // 1–3 MB at 8 KB pages
	chunk := ep.ladder(2, 4, 6, 3) << 10

	c, err := ep.newCluster(core.Options{Workstations: nws, FileServers: 2, Seed: ep.seed})
	if err != nil {
		return err
	}
	if err := ep.seeding(func() error { return c.SeedBinary("/bin/mig", 64<<10) }); err != nil {
		return err
	}
	ws := c.Workstations()
	for i, k := range ws {
		k.SetStrategy(migrateStrategies[i%len(migrateStrategies)])
	}
	verified := make([]int, procs)
	c.Boot("migrate-main", func(env *sim.Env) error {
		started := make([]*core.Process, 0, procs)
		for i := 0; i < procs; i++ {
			i := i
			home := i % nws
			path := fmt.Sprintf("/data/p%d", i)
			if i%2 == 1 {
				path = fmt.Sprintf("/vol2/p%d", i)
			}
			data := make([]byte, chunk*hops)
			rng.Read(data)
			// Workstation j migrates out with strategy j mod 4, so hop h
			// leaves from a host with strategy (i+h) mod 4 and every
			// process rotates through the strategies in the same mix
			// whatever the seed; the seed picks which of the two hosts
			// with the next strategy to land on. No hop lands at home,
			// where the holder still runs: a stream whose sharers reunite
			// on one host leaks the server's open reference for that
			// host, a known fs defect that fails most episodes.
			// The process returns home after the holder exits.
			route := make([]int, hops)
			for h := range route {
				next := (i+h+1)%len(migrateStrategies) + len(migrateStrategies)*rng.Intn(2)
				if next == home {
					next = (next + len(migrateStrategies)) % nws
				}
				route[h] = next
			}
			p, err := ws[home].StartProcess(env, fmt.Sprintf("mig%d", i), func(ctx *core.Ctx) error {
				fd, err := ctx.Open(path, fs.ReadWriteMode, fs.OpenOptions{Create: true, Truncate: true})
				if err != nil {
					return err
				}
				rfd, wfd, err := ctx.Pipe()
				if err != nil {
					return err
				}
				// The holder inherits the file stream and waits on the pipe.
				if _, err := ctx.Fork(fmt.Sprintf("hold%d", i), func(cctx *core.Ctx) error {
					if _, err := cctx.Read(rfd, 1); err != nil {
						return err
					}
					return cctx.Exit(0)
				}, core.ProcConfig{Binary: "/bin/mig", CodePages: 2, HeapPages: 2, StackPages: 1}); err != nil {
					return err
				}
				for h := 0; h < hops; h++ {
					if err := ctx.TouchHeap(0, heapPages, true); err != nil {
						return err
					}
					if _, err := ctx.Write(fd, data[h*chunk:(h+1)*chunk]); err != nil {
						return err
					}
					if err := ep.inSim(ctx.Env(), "ctx.Compute", func() error {
						return ctx.Compute(5 * time.Millisecond)
					}); err != nil {
						return err
					}
					ep.countSim("cpu.compute_calls", 1)
					at := route[h]
					if err := ep.inSim(ctx.Env(), "ctx.Migrate", func() error {
						return ctx.Migrate(ws[at].Host())
					}); err != nil {
						return err
					}
					if _, err := ctx.GetTimeOfDay(); err != nil {
						return err
					}
					if err := ctx.Seek(fd, 0); err != nil {
						return err
					}
					n := (h + 1) * chunk
					got, err := ctx.Read(fd, n)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, data[:n]) {
						return fmt.Errorf("mig%d hop %d: read back %d bytes that differ from the %d written", i, h, len(got), n)
					}
					verified[i] = h + 1
				}
				if _, err := ctx.Write(wfd, []byte{1}); err != nil {
					return err
				}
				if _, _, err := ctx.Wait(); err != nil {
					return err
				}
				if err := ep.inSim(ctx.Env(), "ctx.Migrate", func() error {
					return ctx.Migrate(ws[home].Host())
				}); err != nil {
					return err
				}
				if err := ctx.Seek(fd, 0); err != nil {
					return err
				}
				got, err := ctx.Read(fd, len(data))
				if err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("mig%d at home: read back %d bytes that differ from the %d written", i, len(got), len(data))
				}
				verified[i]++
				for _, d := range []int{fd, rfd, wfd} {
					if err := ctx.Close(d); err != nil {
						return err
					}
				}
				return nil
			}, core.ProcConfig{Binary: "/bin/mig", CodePages: 4, HeapPages: heapPages, StackPages: 2})
			if err != nil {
				return err
			}
			started = append(started, p)
		}
		for _, p := range started {
			if err := ep.join(env, p); err != nil {
				return err
			}
		}
		return nil
	})
	ep.check = func() error {
		for i, v := range verified {
			if v != hops+1 {
				return fmt.Errorf("mig%d verified %d of %d read-backs", i, v, hops+1)
			}
		}
		return nil
	}
	return nil
}

// harvestStorm sizes one configuration's eviction storm.
type harvestStorm struct {
	bursts, flaps, racks, cordons int
}

var harvestStorms = []harvestStorm{
	{bursts: 1, flaps: 1, cordons: 1},
	{bursts: 2, flaps: 1, cordons: 2},
	{bursts: 3, flaps: 2, racks: 1, cordons: 2},
	{bursts: 4, flaps: 2, racks: 1, cordons: 3},
}

// buildHarvest: about 100 hosts harvested by checkpointed jobs under a
// recovery monitor, a checkpointing supervisor and the fleet manager, with
// the MOSIX-style gossip selector behind a claim ledger. The storm's host
// reboots and rack failures are scheduled through the fault plane; owner
// returns (evictions) and operator cordons come from a storm activity.
func buildHarvest(ep *episode) error {
	rng := ep.rng
	storm := harvestStorms[ep.cfg%len(harvestStorms)]
	n := ep.sized(8, 96, 100, 104, 100)
	jobs := ep.sized(2, 10, 12, 16, 14)

	params := core.DefaultParams()
	params.IdleInputAge = 150 * time.Millisecond
	c, err := ep.newCluster(core.Options{Workstations: n, FileServers: 1, Params: &params, Seed: ep.seed})
	if err != nil {
		return err
	}
	c.SetDeferredReap(true)
	if err := ep.seeding(func() error { return c.SeedBinary("/bin/job", 64<<10) }); err != nil {
		return err
	}
	mon := recovery.NewMonitor(c, recovery.Params{Interval: 100 * time.Millisecond, FailThreshold: 2, Reap: true})
	sup := recovery.NewSupervisor(c, mon, recovery.SupervisorParams{
		MaxRestarts: 12, CheckpointEvery: 20 * time.Millisecond, Dir: "/ckpt",
	})
	m := fleet.New(c, fleet.Params{
		Tick: 25 * time.Millisecond, CordonThreshold: 55, CordonGrace: 50 * time.Millisecond,
		DrainPassTimeout: 50 * time.Millisecond, CleanProbes: 2, HalfLife: 100 * time.Millisecond,
	})
	m.SetMonitor(mon)
	m.SetSupervisor(sup)
	gp := hostsel.DefaultProbabilisticParams()
	gp.Interval = 200 * time.Millisecond
	// The supervisor never releases a placement claim; a short lease lets
	// those claims expire before the run ends.
	gp.ClaimLease = 500 * time.Millisecond
	gossip := hostsel.NewProbabilistic(c, gp)
	ep.sel = gossip
	ledger := hostsel.NewClaimLedger(gossip, c, gp.ClaimLease)
	ledger.Register(c)
	placer := &timedSelector{Selector: m.WrapSelector(ledger), ep: ep}
	m.SetSelector(placer)
	m.WatchGossip(gossip)
	sup.SetSelector(placer)
	c.Boot("gossipd", func(env *sim.Env) error {
		gossip.StartDaemons(env)
		return nil
	})
	mon.Start()
	m.Start()

	// Workstation 0 is the jobs' home and never faulted, so a lost job is a
	// control-plane failure, not weather. Storm victims are drawn from the
	// hosts running jobs when each event fires, so every seed's storm hits
	// the same amount of work; the seed picks which jobs and when.
	plane := fault.NewPlane(c, ep.seed)
	const (
		submitAt = 700 * time.Millisecond // after three gossip rounds
		stormAt  = 900 * time.Millisecond
		// The planes run to a fixed horizon (or until the jobs are done, if
		// later), so their periodic work is the same for every seed.
		horizon = 3 * time.Second
	)
	type stormEvent struct {
		at   time.Duration
		kind string
	}
	var events []stormEvent
	add := func(kind string, count, lo, hi int) {
		for i := 0; i < count; i++ {
			events = append(events, stormEvent{stormAt + time.Duration(between(rng, lo, hi))*time.Millisecond, kind})
		}
	}
	add("evict", storm.bursts, 0, 400)
	add("flap", storm.flaps, 50, 400)
	add("rack", storm.racks, 100, 400)
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	busy := func() []int {
		var out []int
		for w := 1; w < n; w++ {
			k := c.Workstation(w)
			if c.HostDown(k.Host()) {
				continue
			}
			for _, p := range k.Processes() {
				if p.State() != core.StateExited {
					out = append(out, w)
					break
				}
			}
		}
		return out
	}
	pick := func() int {
		if b := busy(); len(b) > 0 {
			return b[rng.Intn(len(b))]
		}
		return 1 + rng.Intn(n-1)
	}
	band := func(span int) []rpc.HostID {
		base := pick()
		out := make([]rpc.HostID, span)
		for j := range out {
			out[j] = c.Workstation(1 + (base-1+j)%(n-1)).Host()
		}
		return out
	}
	c.Boot("storm", func(env *sim.Env) error {
		if err := env.Sleep(stormAt); err != nil {
			return err
		}
		// Operators cordon the busiest hosts first, so drains have residents.
		for i, w := range busy() {
			if i == storm.cordons {
				break
			}
			m.Cordon(env, c.Workstation(w).Host(), "operator")
		}
		for _, e := range events {
			if wait := e.at - env.Now(); wait > 0 {
				if err := env.Sleep(wait); err != nil {
					return err
				}
			}
			switch e.kind {
			case "evict": // owners return to a band of hosts
				for _, h := range band(between(rng, 2, max(2, n/10))) {
					if c.HostDown(h) {
						continue
					}
					k := c.KernelOn(h)
					k.NoteInput(env.Now())
					m.NoteEviction(h, env.Now())
					_ = k.EvictAll(env)
				}
			case "flap":
				if h := c.Workstation(pick()).Host(); !c.HostDown(h) {
					plane.RebootHost(env, h)
				}
			case "rack": // a band crashes together and restarts together
				hosts := band(between(rng, 2, max(2, n/20)))
				for _, h := range hosts {
					if !c.HostDown(h) {
						plane.CrashHost(env, h)
					}
				}
				if err := env.Sleep(120 * time.Millisecond); err != nil {
					return err
				}
				for _, h := range hosts {
					if c.HostDown(h) {
						plane.RestartHost(env, h)
					}
				}
			}
		}
		return nil
	})

	jobCfg := core.ProcConfig{Binary: "/bin/job", CodePages: 8, HeapPages: 16, StackPages: 2}
	jobCPU := time.Duration(ep.ladder(150, 200, 250, 200)) * time.Millisecond
	done := 0
	c.Boot("jobs", func(env *sim.Env) error {
		// Wait out the idle threshold and a few gossip rounds so placement
		// sees the idle pool.
		if err := env.Sleep(submitAt); err != nil {
			return err
		}
		var hs []*recovery.Handle
		for i := 0; i < jobs; i++ {
			h, err := sup.Submit(env, fmt.Sprintf("job%d", i), jobCfg, harvestJob(ep, jobCPU, 10*time.Millisecond))
			if err != nil {
				return fmt.Errorf("submit job%d: %w", i, err)
			}
			hs = append(hs, h)
			if err := env.Sleep(10 * time.Millisecond); err != nil {
				return err
			}
		}
		for _, h := range hs {
			if _, err := h.Done().Wait(env); err != nil {
				if err != recovery.ErrJobLost {
					return fmt.Errorf("join %s: %w", h.Name(), err)
				}
				continue
			}
			done++
		}
		// Let drains and readmissions settle and outlive the claim lease.
		if err := env.Sleep(max(600*time.Millisecond, horizon-env.Now())); err != nil {
			return err
		}
		gossip.Stop()
		mon.Stop()
		sup.Stop()
		m.Stop()
		return nil
	})
	ep.limit = 10 * time.Minute
	ep.check = func() error {
		if lost := sup.Lost(); len(lost) > 0 {
			return fmt.Errorf("jobs lost: %v", lost)
		}
		if done != jobs {
			return fmt.Errorf("%d of %d jobs done", done, jobs)
		}
		return nil
	}
	return nil
}

// harvestJob is recovery.ComputeJob with each compute step spanned and
// counted: it computes total in steps, resuming from the checkpointed CPU
// time, and checkpoints after every step.
func harvestJob(ep *episode, total, step time.Duration) recovery.JobFunc {
	return func(ctx *core.Ctx, jc *recovery.JobCtx) error {
		done := time.Duration(jc.Resumed().CPUUsedNanos)
		for done < total {
			d := min(step, total-done)
			if err := ep.inSim(ctx.Env(), "ctx.Compute", func() error { return ctx.Compute(d) }); err != nil {
				return err
			}
			ep.countSim("cpu.compute_calls", 1)
			done += d
			// A failed checkpoint is survivable: a restart resumes from an
			// older image.
			_ = jc.Checkpoint(ctx)
		}
		return nil
	}
}

// timedSelector spans each placement request the fleet manager and the
// supervisor make; every other method passes straight through.
type timedSelector struct {
	hostsel.Selector
	ep *episode
}

func (s *timedSelector) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	var out []rpc.HostID
	err := s.ep.inSim(env, "RequestHosts", func() error {
		var err error
		out, err = s.Selector.RequestHosts(env, client, n)
		return err
	})
	return out, err
}
