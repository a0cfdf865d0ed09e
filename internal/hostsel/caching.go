package hostsel

import (
	"sort"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Caching wraps any Selector with a per-client grant cache: released hosts
// are kept for up to TTL and handed back to the next request without a
// server round trip. This is the thesis's future-work suggestion for
// scaling the central server ("host assignments may be cached effectively
// to reduce the rate of requests to a central server"); pmake-style
// workloads that request and release in quick succession hit the cache
// almost every time.
type Caching struct {
	inner Selector
	ttl   time.Duration
	pools map[rpc.HostID][]cachedGrant
	stats Stats
}

type cachedGrant struct {
	host    rpc.HostID
	expires time.Duration
}

var _ Selector = (*Caching)(nil)

// NewCaching wraps inner with a grant cache of the given TTL.
func NewCaching(inner Selector, ttl time.Duration) *Caching {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	return &Caching{
		inner: inner,
		ttl:   ttl,
		pools: make(map[rpc.HostID][]cachedGrant),
	}
}

// Name implements Selector.
func (c *Caching) Name() string { return c.inner.Name() + "+cache" }

// Stats implements Selector: the wrapper's own counters (cache hits show
// up as Requests minus the inner selector's Requests).
func (c *Caching) Stats() Stats { return c.stats }

// NotifyAvailability implements Selector: transitions invalidate cached
// grants for that host everywhere, then pass through.
func (c *Caching) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	if !available {
		for client, pool := range c.pools {
			kept := pool[:0]
			for _, g := range pool {
				if g.host != host {
					kept = append(kept, g)
				}
			}
			c.pools[client] = kept
		}
	}
	return c.inner.NotifyAvailability(env, host, available)
}

// RequestHosts implements Selector: cached grants first, the wrapped
// selector for the remainder.
func (c *Caching) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	c.stats.Requests++
	if err := c.expire(env, client); err != nil {
		return nil, err
	}
	var got []rpc.HostID
	pool := c.pools[client]
	for len(pool) > 0 && len(got) < n {
		g := pool[0]
		pool = pool[1:]
		got = append(got, g.host)
	}
	c.pools[client] = pool
	if len(got) < n {
		more, err := c.inner.RequestHosts(env, client, n-len(got))
		if err != nil {
			return got, err
		}
		got = append(got, more...)
	}
	c.stats.Granted += uint64(len(got))
	if len(got) < n {
		c.stats.Denied++
	}
	return got, nil
}

// Release implements Selector: grants go into the cache rather than back
// to the server; they are really released when their TTL lapses.
func (c *Caching) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	pool := c.pools[client]
	for _, h := range hosts {
		pool = append(pool, cachedGrant{host: h, expires: env.Now() + c.ttl})
	}
	c.pools[client] = pool
	return c.expire(env, client)
}

// expire returns lapsed grants to the wrapped selector.
func (c *Caching) expire(env *sim.Env, client rpc.HostID) error {
	pool := c.pools[client]
	kept := pool[:0]
	var lapsed []rpc.HostID
	for _, g := range pool {
		if env.Now() >= g.expires {
			lapsed = append(lapsed, g.host)
		} else {
			kept = append(kept, g)
		}
	}
	c.pools[client] = kept
	if len(lapsed) > 0 {
		return c.inner.Release(env, client, lapsed)
	}
	return nil
}

// FlushAll immediately releases every cached grant (used at client exit).
// Clients are flushed in sorted order: the wrapped selector sees the
// released hosts in a fixed sequence, so its free-list order — and every
// grant it hands out afterwards — stays independent of map iteration.
func (c *Caching) FlushAll(env *sim.Env) error {
	clients := make([]int, 0, len(c.pools))
	for client := range c.pools {
		clients = append(clients, int(client))
	}
	sort.Ints(clients)
	for _, cl := range clients {
		client := rpc.HostID(cl)
		pool := c.pools[client]
		var hosts []rpc.HostID
		for _, g := range pool {
			hosts = append(hosts, g.host)
		}
		c.pools[client] = nil
		if len(hosts) > 0 {
			if err := c.inner.Release(env, client, hosts); err != nil {
				return err
			}
		}
	}
	return nil
}
