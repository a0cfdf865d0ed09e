package hostsel

import (
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// CentralParams configures the centralized server.
type CentralParams struct {
	// RequestCPU is server processing per host request (state update, fair
	// allocation decision, reply via the pseudo-device stream).
	RequestCPU time.Duration
	// ReleaseCPU is server processing per release.
	ReleaseCPU time.Duration
	// UpdateCPU is server processing per availability update.
	UpdateCPU time.Duration
	// EvictOnOwnerReturn revokes assignments (and triggers eviction at the
	// borrowed host) when the host's owner returns.
	EvictOnOwnerReturn bool
}

// DefaultCentralParams calibrates the request path so that one
// select-plus-release round trip lands near the 56 ms the thesis reports
// for migd on DECstation 3100s.
func DefaultCentralParams() CentralParams {
	return CentralParams{
		RequestCPU:         40 * time.Millisecond,
		ReleaseCPU:         8 * time.Millisecond,
		UpdateCPU:          2 * time.Millisecond,
		EvictOnOwnerReturn: true,
	}
}

// Central is Sprite's migd: one server process that knows every host's
// availability, allocates idle hosts fairly, and revokes them on owner
// return.
type Central struct {
	cluster *core.Cluster
	host    rpc.HostID
	params  CentralParams

	info        map[rpc.HostID]availInfo
	assignments map[rpc.HostID]rpc.HostID // idle host -> client using it
	allocCount  map[rpc.HostID]int        // client -> hosts currently held
	stats       Stats
}

var _ Selector = (*Central)(nil)

type (
	migdUpdateArgs struct {
		Host      rpc.HostID
		Available bool
	}
	migdRequestArgs struct {
		Client rpc.HostID
		N      int
	}
	migdReleaseArgs struct {
		Client rpc.HostID
		Hosts  []rpc.HostID
	}
)

// NewCentral creates the central selector with its server on the given host
// (commonly a file server or any ordinary machine).
func NewCentral(cluster *core.Cluster, host rpc.HostID, params CentralParams) *Central {
	c := &Central{
		cluster:     cluster,
		host:        host,
		params:      params,
		info:        make(map[rpc.HostID]availInfo),
		assignments: make(map[rpc.HostID]rpc.HostID),
		allocCount:  make(map[rpc.HostID]int),
	}
	ep := cluster.Transport().Register(host)
	ep.Handle("migd.update", c.handleUpdate)
	ep.Handle("migd.request", c.handleRequest)
	ep.Handle("migd.release", c.handleRelease)
	return c
}

// Name implements Selector.
func (c *Central) Name() string { return "central" }

// Stats implements Selector.
func (c *Central) Stats() Stats { return c.stats }

// Reset discards all server state, as after a crash and restart of the
// migd process. Theimer & Lantz's observation — adopted by the thesis —
// is that a centralized facility can simply be restarted on failure: the
// state is soft, and hosts repopulate it with their next availability
// announcements.
func (c *Central) Reset() {
	c.info = make(map[rpc.HostID]availInfo)
	c.assignments = make(map[rpc.HostID]rpc.HostID)
	c.allocCount = make(map[rpc.HostID]int)
}

// NotifyAvailability implements Selector: the host's load daemon reports a
// transition with one RPC to the server.
func (c *Central) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	c.stats.Messages++
	ep := c.cluster.Transport().Endpoint(host)
	if ep == nil {
		return fmt.Errorf("hostsel: %w: %v", rpc.ErrNoHost, host)
	}
	_, err := ep.Call(env, c.host, "migd.update", migdUpdateArgs{Host: host, Available: available}, 32)
	return err
}

// RequestHosts implements Selector.
func (c *Central) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	c.stats.Messages++
	ep := c.cluster.Transport().Endpoint(client)
	reply, err := ep.Call(env, c.host, "migd.request", migdRequestArgs{Client: client, N: n}, 32)
	if err != nil {
		return nil, err
	}
	hosts, ok := reply.([]rpc.HostID)
	if !ok {
		return nil, fmt.Errorf("migd.request: bad reply %T", reply)
	}
	return hosts, nil
}

// Release implements Selector.
func (c *Central) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	if len(hosts) == 0 {
		return nil
	}
	c.stats.Messages++
	ep := c.cluster.Transport().Endpoint(client)
	_, err := ep.Call(env, c.host, "migd.release", migdReleaseArgs{Client: client, Hosts: hosts}, 32+8*len(hosts))
	return err
}

func (c *Central) handleUpdate(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(migdUpdateArgs)
	if !ok {
		return nil, 0, fmt.Errorf("migd.update: bad args %T", arg)
	}
	if err := env.Sleep(c.params.UpdateCPU); err != nil {
		return nil, 0, err
	}
	prev := c.info[a.Host]
	info := availInfo{available: a.Available, updatedAt: env.Now()}
	if a.Available {
		if prev.available {
			info.idleSince = prev.idleSince
		} else {
			info.idleSince = env.Now()
		}
	}
	c.info[a.Host] = info
	if !a.Available {
		if client, assigned := c.assignments[a.Host]; assigned {
			// Owner returned while the host was lent out: revoke and make
			// the borrowed host evict its foreign processes.
			delete(c.assignments, a.Host)
			c.allocCount[client]--
			c.stats.Evictions++
			if c.params.EvictOnOwnerReturn {
				srvEP := c.cluster.Transport().Endpoint(c.host)
				if _, err := srvEP.Call(env, a.Host, "k.evict", nil, 16); err != nil {
					return nil, 0, fmt.Errorf("evict %v: %w", a.Host, err)
				}
			}
		}
	}
	return nil, 8, nil
}

func (c *Central) handleRequest(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(migdRequestArgs)
	if !ok {
		return nil, 0, fmt.Errorf("migd.request: bad args %T", arg)
	}
	if err := env.Sleep(c.params.RequestCPU); err != nil {
		return nil, 0, err
	}
	c.stats.Requests++
	var cands []rpc.HostID
	for h, inf := range c.info {
		if _, busy := c.assignments[h]; !busy && inf.available && h != a.Client {
			cands = append(cands, h) //spritelint:allow maporder pickLongestIdle re-sorts below with a total order (idleSince, host id)
		}
	}
	// Fair allocation under contention: a client's holdings may not exceed
	// its share of the pool when other clients are also consuming hosts.
	want := a.N
	others := 0
	for cl, n := range c.allocCount {
		if n > 0 && cl != a.Client {
			others++
		}
	}
	if others > 0 {
		pool := len(cands) + c.allocCount[a.Client]
		for cl, n := range c.allocCount {
			if n > 0 && cl != a.Client {
				pool += n
			}
		}
		share := pool / (others + 1)
		if share < 1 {
			share = 1
		}
		if allowed := share - c.allocCount[a.Client]; allowed < want {
			want = allowed
		}
		if want < 0 {
			want = 0
		}
	}
	picked := pickLongestIdle(cands, c.info, want)
	for _, h := range picked {
		c.assignments[h] = a.Client
	}
	c.allocCount[a.Client] += len(picked)
	c.stats.Granted += uint64(len(picked))
	if len(picked) < a.N {
		c.stats.Denied++
	}
	return picked, 16 + 8*len(picked), nil
}

func (c *Central) handleRelease(env *sim.Env, from rpc.HostID, arg any) (any, int, error) {
	a, ok := arg.(migdReleaseArgs)
	if !ok {
		return nil, 0, fmt.Errorf("migd.release: bad args %T", arg)
	}
	if err := env.Sleep(c.params.ReleaseCPU); err != nil {
		return nil, 0, err
	}
	for _, h := range a.Hosts {
		if c.assignments[h] == a.Client {
			delete(c.assignments, h)
			c.allocCount[a.Client]--
		}
	}
	return nil, 8, nil
}
