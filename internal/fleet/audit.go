package fleet

import (
	"fmt"
	"sort"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
)

// Disposition labels for drained residents.
const (
	dispMigrated  = "migrated"  // moved off by live migration
	dispEvacuated = "evacuated" // killed + relaunched by the supervisor
	dispExited    = "exited"    // finished on its own during the drain
	dispCrashed   = "crashed"   // host died mid-drain; recovery owns it now
)

// residentRec is one process caught by a drain.
type residentRec struct {
	proc *core.Process
	disp string // empty while in flight
}

// drainRec is the audit trail of one drain of one host.
type drainRec struct {
	host      rpc.HostID
	start     time.Duration
	end       time.Duration
	completed bool
	residents map[core.PID]*residentRec
}

// drainAudit is the drain-safety oracle, registered into
// Cluster.CheckInvariants like the hostsel claim ledger: every process
// resident on a draining host must be accounted for (no PID lost), no
// process may end up placed twice, and a completed drain must leave its
// host empty. Violations accumulate and fail the invariant sweep.
type drainAudit struct {
	c          *core.Cluster
	records    []*drainRec
	violations []string
}

func newDrainAudit() *drainAudit { return &drainAudit{} }

// register hooks the audit into the cluster's invariant sweep.
func (a *drainAudit) register(c *core.Cluster, m *Manager) {
	a.c = c
	c.AddInvariantCheck(func(endOfRun bool) []string {
		return a.check(m, endOfRun)
	})
}

// begin opens the audit trail for a drain of host starting at `start`.
func (a *drainAudit) begin(host rpc.HostID, start time.Duration) *drainRec {
	rec := &drainRec{host: host, start: start, residents: make(map[core.PID]*residentRec)}
	a.records = append(a.records, rec)
	return rec
}

// ensure adds p to the drain's resident set on first sighting.
func (a *drainAudit) ensure(rec *drainRec, p *core.Process) *residentRec {
	r := rec.residents[p.PID()]
	if r == nil {
		r = &residentRec{proc: p}
		rec.residents[p.PID()] = r
	}
	return r
}

// dispose records what happened to one resident. Conflicting dispositions
// are a violation: a process disposed twice means the drain moved it twice.
func (a *drainAudit) dispose(rec *drainRec, pid core.PID, disp string) {
	r := rec.residents[pid]
	if r == nil {
		a.violations = append(a.violations,
			fmt.Sprintf("drain %v: disposition %q for untracked resident %v", rec.host, disp, pid))
		return
	}
	if r.disp != "" && r.disp != disp {
		a.violations = append(a.violations,
			fmt.Sprintf("drain %v: resident %v disposed %q after %q", rec.host, pid, disp, r.disp))
		return
	}
	r.disp = disp
}

// complete closes the drain at time end and verifies the terminal
// conditions: every resident disposed, and the host actually empty.
func (a *drainAudit) complete(rec *drainRec, end time.Duration) {
	rec.completed = true
	rec.end = end
	for _, pid := range sortedPIDs(rec.residents) {
		if rec.residents[pid].disp == "" {
			a.violations = append(a.violations,
				fmt.Sprintf("drain %v: resident %v lost (no disposition at completion)", rec.host, pid))
		}
	}
	if k := a.c.KernelOn(rec.host); k != nil && !a.c.HostDown(rec.host) {
		for _, p := range k.Processes() {
			if p.State() != core.StateExited {
				a.violations = append(a.violations,
					fmt.Sprintf("drain %v: completed with %v still resident", rec.host, p.PID()))
			}
		}
	}
}

// check is the invariant sweep: accumulated violations, plus the global
// double-placement scan (a live PID executing on two hosts at once means a
// drain re-placed a process that had already moved).
func (a *drainAudit) check(m *Manager, endOfRun bool) []string {
	out := append([]string(nil), a.violations...)
	seen := make(map[core.PID]rpc.HostID)
	for _, host := range m.hosts {
		k := m.c.KernelOn(host)
		if k == nil || m.c.HostDown(host) {
			continue
		}
		for _, p := range k.Processes() {
			if p.State() == core.StateExited {
				continue
			}
			if prev, dup := seen[p.PID()]; dup {
				out = append(out, fmt.Sprintf(
					"drain safety: %v resident on both %v and %v", p.PID(), prev, host))
			}
			seen[p.PID()] = host
		}
	}
	if endOfRun {
		for _, rec := range a.records {
			if !rec.completed {
				// An unfinished drain at end of run is not a violation by
				// itself (the storm may simply end mid-drain), but a
				// tracked resident that can no longer be found anywhere —
				// and has not exited — is a lost process.
				for _, pid := range sortedPIDs(rec.residents) {
					r := rec.residents[pid]
					if r.disp != "" || r.proc.State() == core.StateExited {
						continue
					}
					if _, placed := seen[pid]; !placed && !m.c.HostDown(r.proc.Current().Host()) {
						out = append(out, fmt.Sprintf(
							"drain %v: resident %v lost at end of run", rec.host, pid))
					}
				}
			}
		}
	}
	return out
}

func sortedPIDs(m map[core.PID]*residentRec) []core.PID {
	out := make([]core.PID, 0, len(m))
	for pid := range m {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Home != out[j].Home {
			return out[i].Home < out[j].Home
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
