package core

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/sim"
)

// TestMigrationPhaseMetrics: a clean migration decomposes exactly into the
// five phases — negotiate, VM transfer, stream handoff, PCB, resume — both
// in the MigrationRecord and in the metrics plane's phase timings, and the
// started/completed/in-flight accounting balances.
func TestMigrationPhaseMetrics(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "mover", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 16, true); err != nil {
				return err
			}
			return ctx.Migrate(dst.Host())
		}, bigProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)

	recs := c.MigrationRecords()
	if len(recs) != 1 {
		t.Fatalf("migrations = %d, want 1", len(recs))
	}
	rec := recs[0]
	// FileTime may be zero: with the batched data plane the stream transfer
	// overlaps the VM transfer, and its span covers only the tail that
	// outlives the VM work.
	if rec.NegotiateTime <= 0 || rec.VMTime <= 0 || rec.FileTime < 0 || rec.PCBTime <= 0 {
		t.Fatalf("phase times must all be non-negative (negotiate/vm/pcb positive): %+v", rec)
	}
	// The phases tile Total with no gap: spans are contiguous in virtual
	// time, so the decomposition must be exact, not approximate.
	if sum := rec.NegotiateTime + rec.VMTime + rec.FileTime + rec.PCBTime + rec.ResumeTime; sum != rec.Total {
		t.Fatalf("phase sum %v != total %v", sum, rec.Total)
	}

	snap := c.MetricsSnapshot()
	if got := snap.Counters["mig.started"]; got != 1 {
		t.Fatalf("mig.started = %d", got)
	}
	if got := snap.Counters["mig.completed"]; got != 1 {
		t.Fatalf("mig.completed = %d", got)
	}
	if got := snap.Counters["mig.aborted"]; got != 0 {
		t.Fatalf("mig.aborted = %d", got)
	}
	// mig.inflight is derived from the counters at snapshot time; after the
	// migration completed the level is back to zero.
	g := snap.Gauges["mig.inflight"]
	if g.Value != 0 {
		t.Fatalf("mig.inflight = %+v, want value 0", g)
	}
	for _, name := range []string{
		"mig.phase.negotiate", "mig.phase.vm.sprite-flush",
		"mig.phase.streams", "mig.phase.pcb", "mig.phase.resume",
		"mig.total", "mig.total.sprite-flush", "mig.freeze",
	} {
		ts, ok := snap.Timings[name]
		if !ok || ts.N != 1 {
			t.Fatalf("timing %s = %+v, want one observation", name, ts)
		}
	}
	if got := snap.Timings["mig.phase.vm.sprite-flush"].Sum; got != rec.VMTime {
		t.Fatalf("vm phase timing %v != record VMTime %v", got, rec.VMTime)
	}
	if got := snap.Counters["mig.vm_bytes"]; got != int64(rec.VMBytes) {
		t.Fatalf("mig.vm_bytes = %d, want %d", got, rec.VMBytes)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestMetricsAbortRollbackUnderFault drives two failed migrations through
// the fault plane — one killed by an injected VM-phase error, one by the
// target host crashing just before switch-over — and asserts the metrics
// plane rolls both back coherently: no phase timing is recorded for work
// that never completed, the aborts are charged to the right phase, the
// in-flight gauge returns to zero, and the invariant checker agrees.
func TestMetricsAbortRollbackUnderFault(t *testing.T) {
	c := newCluster(t, 3)
	src, dstA, dstB := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	injected := errors.New("injected vm fault")
	vmFault := true
	c.SetFailpoint(func(env *sim.Env, name string, pid PID) error {
		switch {
		case vmFault && name == "mig.vm":
			vmFault = false
			return injected
		case name == "mig.pcb" && c.KernelOn(dstB.Host()) != nil && !c.HostDown(dstB.Host()):
			// Crash the second target after its PCB landed: the migration
			// must detect the dead host and abort during resume.
			c.CrashHost(env, dstB.Host())
		}
		return nil
	})
	var errA, errB error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "unlucky", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 16, true); err != nil {
				return err
			}
			errA = ctx.Migrate(dstA.Host())
			errB = ctx.Migrate(dstB.Host())
			// Life goes on at the source either way.
			return ctx.Compute(10 * time.Millisecond)
		}, bigProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)

	if !errors.Is(errA, injected) {
		t.Fatalf("first migration err = %v, want injected fault", errA)
	}
	if errB == nil {
		t.Fatal("second migration must fail: target crashed mid-flight")
	}

	snap := c.MetricsSnapshot()
	if got := snap.Counters["mig.started"]; got != 2 {
		t.Fatalf("mig.started = %d", got)
	}
	if got := snap.Counters["mig.completed"]; got != 0 {
		t.Fatalf("mig.completed = %d", got)
	}
	if got := snap.Counters["mig.aborted"]; got != 2 {
		t.Fatalf("mig.aborted = %d", got)
	}
	if got := snap.Counters["mig.aborted.vm.sprite-flush"]; got != 1 {
		t.Fatalf("mig.aborted.vm.sprite-flush = %d", got)
	}
	if got := snap.Counters["mig.aborted.resume"]; got != 1 {
		t.Fatalf("mig.aborted.resume = %d", got)
	}
	if g := snap.Gauges["mig.inflight"]; g.Value != 0 {
		t.Fatalf("mig.inflight = %d after aborts, want 0", g.Value)
	}
	// No partial-phase leaks: an aborted phase contributes no latency
	// observation. The VM phase aborted on the first attempt and completed
	// zero times; resume never completed at all.
	if ts, ok := snap.Timings["mig.phase.vm.sprite-flush"]; ok && ts.N != 1 {
		t.Fatalf("vm phase timings = %+v, want only the second attempt's", ts)
	}
	if ts, ok := snap.Timings["mig.phase.resume"]; ok && ts.N != 0 {
		t.Fatalf("resume phase recorded %d timings for aborted work", ts.N)
	}
	// Completed-phase counts line up with how far each attempt got:
	// negotiate ran twice (both attempts), streams and pcb once (second).
	if ts := snap.Timings["mig.phase.negotiate"]; ts.N != 2 {
		t.Fatalf("negotiate timings = %d, want 2", ts.N)
	}
	if ts := snap.Timings["mig.phase.pcb"]; ts.N != 1 {
		t.Fatalf("pcb timings = %d, want 1", ts.N)
	}
	if got := snap.Timings["mig.total"].N; got != 0 {
		t.Fatalf("mig.total recorded %d aborted migrations", got)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Fatalf("invariants after fault run: %v", v)
	}
}

// TestMetricsSnapshotDeterministic: two clusters run from the same seed
// render byte-identical metrics snapshots.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	run := func() string {
		c := newCluster(t, 3)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := c.Workstation(0).StartProcess(env, "hopper", func(ctx *Ctx) error {
				if err := ctx.TouchHeap(0, 8, true); err != nil {
					return err
				}
				if err := ctx.Migrate(c.Workstation(1).Host()); err != nil {
					return err
				}
				return ctx.Migrate(c.Workstation(2).Host())
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		return c.MetricsSnapshot().Text()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed snapshots differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("snapshot is empty")
	}
}
