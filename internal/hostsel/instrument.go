package hostsel

import (
	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Instrumented wraps a Selector and reports its behaviour to a metrics
// registry: one latency timing per operation (the thesis's 56 ms
// host-selection figure is exactly this number for the central server) and
// grant/denial/conflict counters. The wrapper adds no simulated time — it
// reads env.Now() around the delegate — so instrumenting a selector cannot
// change an experiment's outcome.
type Instrumented struct {
	inner Selector

	requestT *metrics.Timing
	releaseT *metrics.Timing
	notifyT  *metrics.Timing
	requests *metrics.Counter
	granted  *metrics.Counter
	denied   *metrics.Counter
	errs     *metrics.Counter
}

var _ Selector = (*Instrumented)(nil)

// Instrument wraps sel so its selection latency and grant counters land in
// reg under hostsel.<name>.*. A nil registry returns sel unchanged.
func Instrument(sel Selector, reg *metrics.Registry) Selector {
	if reg == nil {
		return sel
	}
	prefix := "hostsel." + sel.Name() + "."
	return &Instrumented{
		inner:    sel,
		requestT: reg.Timing(prefix + "request"),
		releaseT: reg.Timing(prefix + "release"),
		notifyT:  reg.Timing(prefix + "notify"),
		requests: reg.Counter(prefix + "requests"),
		granted:  reg.Counter(prefix + "granted"),
		denied:   reg.Counter(prefix + "denied"),
		errs:     reg.Counter(prefix + "errs"),
	}
}

// Unwrap returns the underlying selector.
func (i *Instrumented) Unwrap() Selector { return i.inner }

// Name identifies the wrapped architecture.
func (i *Instrumented) Name() string { return i.inner.Name() }

// RequestHosts delegates and records the call's virtual-time latency.
func (i *Instrumented) RequestHosts(env *sim.Env, client rpc.HostID, n int) ([]rpc.HostID, error) {
	start := env.Now()
	hosts, err := i.inner.RequestHosts(env, client, n)
	i.requestT.Observe(env.Now() - start)
	i.requests.Inc()
	i.granted.Add(int64(len(hosts)))
	if err != nil || len(hosts) < n {
		i.denied.Inc()
	}
	if err != nil {
		i.errs.Inc()
	}
	return hosts, err
}

// Release delegates and records latency.
func (i *Instrumented) Release(env *sim.Env, client rpc.HostID, hosts []rpc.HostID) error {
	start := env.Now()
	err := i.inner.Release(env, client, hosts)
	i.releaseT.Observe(env.Now() - start)
	if err != nil {
		i.errs.Inc()
	}
	return err
}

// NotifyAvailability delegates and records latency.
func (i *Instrumented) NotifyAvailability(env *sim.Env, host rpc.HostID, available bool) error {
	start := env.Now()
	err := i.inner.NotifyAvailability(env, host, available)
	i.notifyT.Observe(env.Now() - start)
	if err != nil {
		i.errs.Inc()
	}
	return err
}

// Stats returns the wrapped selector's own counters.
func (i *Instrumented) Stats() Stats { return i.inner.Stats() }
