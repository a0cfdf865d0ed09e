package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"sprite/internal/fault"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/stats"
)

// E16 timeline (simulated time). Warmup lets every host idle past the
// one-minute input age; churn then runs for the middle window while
// requesters compete; the tail drains outstanding protocol activity.
const (
	e16Warmup   = time.Minute
	e16ChurnEnd = 150 * time.Second // faults fall in [70s, churnEnd]
	e16End      = 210 * time.Second
)

// e16Tolerable mirrors the selector protocols' churn tolerance: hosts that
// are down, unreachable, or rebooting mid-protocol are the experiment's
// subject matter, not a driver failure.
func e16Tolerable(err error) bool {
	for _, e := range []error{rpc.ErrHostDown, rpc.ErrTimeout, rpc.ErrNoService, rpc.ErrNoHost, hostsel.ErrNoHosts} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// e16Row is one (architecture, fleet size) measurement, also the JSON shape
// written to Config.Snapshot.
type e16Row struct {
	Architecture string  `json:"architecture"`
	Hosts        int     `json:"hosts"`
	Requests     uint64  `json:"requests"`
	Granted      uint64  `json:"granted"`
	Denied       uint64  `json:"denied"`
	Conflicts    uint64  `json:"conflicts"`
	MisplaceRate float64 `json:"misplace_rate"`
	MeanMs       float64 `json:"mean_ms"`
	P95Ms        float64 `json:"p95_ms"`
	MsgsPerMin   float64 `json:"msgs_per_min"`
	GossipBytes  uint64  `json:"gossip_bytes,omitempty"`
}

// e16Point runs one selector architecture over one fleet size under the
// combined churn schedule: a reboot storm, flapping hosts, and two network
// partitions, all drawn from the fault plane.
func e16Point(cfg Config, t *Table, n, which int) (*e16Row, error) {
	c, sels, err := selectionCluster(cfg.Seed+int64(which), n)
	if err != nil {
		return nil, err
	}
	sel := sels[which]
	lease := time.Duration(0)
	if _, ok := sel.(*hostsel.Probabilistic); ok {
		lease = hostsel.DefaultProbabilisticParams().ClaimLease
	}
	ledger := hostsel.NewClaimLedger(sel, c, lease)
	ledger.Register(c)
	plane := fault.NewPlane(c, cfg.Seed*1_000_003+int64(n)*10+int64(which))

	// Fault targets occupy a contiguous band starting past the requesters;
	// storm, flap, and partition sets are disjoint so each churn shape is
	// attributable.
	requesters := 3
	stormCount := max(2, n/10)
	flapCount := max(2, n/20)
	partCount := max(4, n/8)
	band := requesters + 1
	hostAt := func(i int) rpc.HostID { return c.Workstation(i % n).Host() }

	// Reboot storm: two staggered waves across the storm set.
	for i := 0; i < stormCount; i++ {
		h := hostAt(band + i)
		plane.ScheduleReboot(h, 70*time.Second+time.Duration(i)*(40*time.Second/time.Duration(stormCount)))
		plane.ScheduleReboot(h, 115*time.Second+time.Duration(i)*(30*time.Second/time.Duration(stormCount)))
	}
	// Partitions: each half of the partition set is isolated for one window.
	partBase := band + stormCount + flapCount
	var partA, partB []rpc.HostID
	for i := 0; i < partCount/2; i++ {
		partA = append(partA, hostAt(partBase+i))
		partB = append(partB, hostAt(partBase+partCount/2+i))
	}
	plane.Partition(70*time.Second, 100*time.Second, partA...)
	plane.Partition(115*time.Second, 145*time.Second, partB...)

	// Flapping: availability retractions and fresh announcements every few
	// seconds, plus simulated user input, without the hosts going down.
	flapBase := band + stormCount
	c.Boot("flapper", func(env *sim.Env) error {
		if err := env.Sleep(70 * time.Second); err != nil {
			return err
		}
		for round := 0; env.Now() < e16ChurnEnd; round++ {
			for i := 0; i < flapCount; i++ {
				k := c.Workstation((flapBase + i) % n)
				if (round+i)%2 == 0 {
					k.NoteInput(env.Now())
					if err := sel.NotifyAvailability(env, k.Host(), false); err != nil && !e16Tolerable(err) {
						return err
					}
				} else if err := sel.NotifyAvailability(env, k.Host(), true); err != nil && !e16Tolerable(err) {
					return err
				}
			}
			if err := env.Sleep(4 * time.Second); err != nil {
				return err
			}
		}
		return nil
	})

	// Announcer: the load-daemon stand-in pushing availability into the
	// selector, tolerating hosts that are down mid-round.
	c.Boot("announce", func(env *sim.Env) error {
		if err := env.Sleep(e16Warmup); err != nil {
			return err
		}
		for env.Now() < e16End {
			for _, k := range c.Workstations() {
				if c.HostDown(k.Host()) {
					continue
				}
				if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil && !e16Tolerable(err) {
					return err
				}
			}
			if err := env.Sleep(5 * time.Second); err != nil {
				return err
			}
		}
		// Shutdown: retry file-server closes that failed mid-partition, so
		// no host leaves a leaked open entry behind (the shared-file
		// selector's state file is the one at risk).
		for _, k := range c.Workstations() {
			if !c.HostDown(k.Host()) {
				c.FS().Client(k.Host()).Settle(env)
			}
		}
		return nil
	})

	if g, ok := sel.(*hostsel.Probabilistic); ok {
		c.Boot("gossipd", func(env *sim.Env) error {
			if err := env.Sleep(e16Warmup); err != nil {
				return err
			}
			g.StartDaemons(env)
			if err := env.Sleep(e16End - e16Warmup); err != nil {
				return err
			}
			g.Stop()
			return nil
		})
	}

	var sample stats.Sample
	for r := 0; r < requesters; r++ {
		r := r
		client := c.Workstation(r).Host()
		c.Boot(fmt.Sprintf("req%d", r), func(env *sim.Env) error {
			if err := env.Sleep(e16Warmup + time.Duration(r)*300*time.Millisecond); err != nil {
				return err
			}
			for env.Now() < e16End-5*time.Second {
				t0 := env.Now()
				got, err := ledger.RequestHosts(env, client, 2)
				if err != nil && !e16Tolerable(err) {
					return fmt.Errorf("req%d: %w", r, err)
				}
				sample.AddDuration(env.Now() - t0)
				if err := env.Sleep(time.Second); err != nil {
					return err
				}
				if len(got) > 0 {
					if err := ledger.Release(env, client, got); err != nil && !e16Tolerable(err) {
						return fmt.Errorf("req%d release: %w", r, err)
					}
				}
				if err := env.Sleep(time.Second); err != nil {
					return err
				}
			}
			return nil
		})
	}

	if err := c.Run(0); err != nil {
		return nil, err
	}
	if viol := c.CheckInvariants(true); len(viol) > 0 {
		return nil, fmt.Errorf("E16 %s hosts=%d: invariants violated: %v", sel.Name(), n, viol)
	}
	t.CaptureMetrics(cfg, fmt.Sprintf("%s hosts=%d", sel.Name(), n), c)

	st := sel.Stats()
	row := &e16Row{
		Architecture: sel.Name(),
		Hosts:        n,
		Requests:     st.Requests,
		Granted:      st.Granted,
		Denied:       st.Denied,
		Conflicts:    st.Conflicts,
		MeanMs:       sample.Mean() * 1000,
		P95Ms:        sample.Percentile(95) * 1000,
		MsgsPerMin:   float64(st.Messages) / (e16End - e16Warmup).Minutes(),
	}
	if st.Granted+st.Conflicts > 0 {
		row.MisplaceRate = float64(st.Conflicts) / float64(st.Granted+st.Conflicts)
	}
	if g, ok := sel.(*hostsel.Probabilistic); ok {
		row.GossipBytes = g.Gossip().Bytes
	}
	return row, nil
}

// E16SelectorShootout reruns the Ch. 6 selector comparison at fleet scale
// under churn: every architecture faces the same reboot storm, flapping
// hosts, and network partitions, and is scored on selection latency,
// misplacement rate (stale grants caught at claim time), and message
// overhead. The gossip selector's partial load vectors are the subject: the
// experiment shows what bounded, aging, epoch-guarded views cost in
// misplacements relative to the central server's perfect state.
func E16SelectorShootout(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E16",
		Title:    "Selector shoot-out at fleet scale under churn",
		PaperRef: "thesis Ch. 6 revisited: gossip load vectors vs central, shared-file, multicast",
		Columns:  []string{"architecture", "hosts", "granted", "denied", "misplaced", "misplace %", "mean ms", "p95 ms", "msgs/min"},
	}
	sizes := []int{100, 1000}
	if cfg.Quick {
		sizes = []int{24}
	}
	if cfg.Hosts > 0 {
		// Explicit scale override (spritesim -hosts): run exactly that one
		// fleet size — how the 10k CI tier invokes the combined-churn
		// schedule without paying for the standard sweep first.
		sizes = []int{cfg.Hosts}
	}
	var rows []*e16Row
	for _, n := range sizes {
		for which := 0; which < 4; which++ {
			row, err := e16Point(cfg, t, n, which)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			t.AddRow(row.Architecture, fmt.Sprintf("%d", row.Hosts),
				fmt.Sprintf("%d", row.Granted),
				fmt.Sprintf("%d", row.Denied),
				fmt.Sprintf("%d", row.Conflicts),
				fmt.Sprintf("%.2f", row.MisplaceRate*100),
				fmt.Sprintf("%.1f", row.MeanMs),
				fmt.Sprintf("%.1f", row.P95Ms),
				fmt.Sprintf("%.0f", row.MsgsPerMin))
		}
	}
	t.AddNote("paper shape: central stays conflict-free but funnels every update through one host; gossip's bounded aged views misplace a small fraction of claims and recover via claim verification; multicast pays per-request fleet-wide traffic")
	if cfg.Snapshot != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.Snapshot, data, 0o644); err != nil {
			return nil, err
		}
		t.AddNote("shoot-out results written to %s", cfg.Snapshot)
	}
	return t, nil
}
