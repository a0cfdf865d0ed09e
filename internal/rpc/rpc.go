// Package rpc implements the kernel-to-kernel remote procedure call system
// that Sprite kernels use to cooperate (modeled on Welch's Sprite RPC
// [Wel86], itself in the style of Birrell & Nelson [BN84]).
//
// Every host owns one Endpoint with a set of named services. A call charges
// the caller for client-side software overhead, the network for the request
// and reply payloads, and then executes the service handler synchronously in
// the caller's activity; handlers charge any server-side costs to the
// server's own resources (CPU, disk) explicitly.
package rpc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// HostID identifies one host (workstation or file server) on the network.
type HostID int

// String renders the host id in the conventional "host<N>" form.
func (h HostID) String() string { return fmt.Sprintf("host%d", int(h)) }

// NoHost is the zero HostID; valid hosts are numbered from 1.
const NoHost HostID = 0

// Epoch is a host's boot incarnation number. It starts at 1 when the host
// first registers and increases by one on every restart, so a host that
// crashes and comes back at the same address is distinguishable from one
// that never went down — the recovery plane's reboot detector keys on it.
type Epoch uint64

// EpochObserver is notified with the replying host's current epoch every
// time a call to that host completes (success or handler error — the reply
// made it back either way). Replies piggyback the epoch the way Sprite RPC
// piggybacks the boot timestamp; a passive observer therefore learns about
// reboots from ordinary traffic without waiting for the next heartbeat.
type EpochObserver func(host HostID, epoch Epoch)

// HintProvider supplies a small opaque payload piggybacked on every remote
// reply the endpoint sends, in the same spirit as the epoch piggyback: a
// subsystem with soft state (the gossip host selector's eviction hints) can
// spread small facts on ordinary traffic without extra messages. The
// returned size is charged to the reply on the wire; return (nil, 0) when
// there is nothing to say, which keeps the call byte-identical to one with
// no provider installed. The payload is captured when the handler executes,
// so a retransmitted (cached) reply carries the same hints.
type HintProvider func() (payload any, size int)

// HintObserver receives the piggybacked payload delivered with a reply.
// caller is the host whose call carried the reply back; server is the host
// whose provider produced the payload. Like EpochObserver, it runs inside
// the calling activity and must be pure bookkeeping: no sleeping, no calls.
type HintObserver func(caller, server HostID, payload any)

// Errors reported by the transport.
var (
	// ErrHostDown is returned when calling a host marked down.
	ErrHostDown = errors.New("rpc: host down")
	// ErrNoService is returned when the target host does not implement the
	// requested service.
	ErrNoService = errors.New("rpc: no such service")
	// ErrNoHost is returned when the target host is not registered.
	ErrNoHost = errors.New("rpc: no such host")
	// ErrTimeout is returned when a call exhausts its retransmissions without
	// ever seeing a reply (only reachable under fault injection: with no
	// injector installed, messages are never lost).
	ErrTimeout = errors.New("rpc: call timed out")
)

// Verdict is a fault injector's decision about one call attempt.
type Verdict struct {
	// DropRequest loses the request message: the server never sees it and
	// the client times out and retransmits.
	DropRequest bool
	// DropReply loses the reply message: the server processes the call but
	// the client times out and retransmits; the server's duplicate detection
	// then resends the cached reply without re-executing the handler
	// (Sprite RPC's at-most-once semantics, after Birrell & Nelson).
	DropReply bool
	// Delay adds one-way latency to the request leg.
	Delay time.Duration
}

// Injector decides the fate of individual RPC messages. Implementations must
// be deterministic functions of simulation state; Intercept runs in the
// calling activity, once per transmission attempt.
type Injector interface {
	Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict
}

// Handler is a service implementation. It runs synchronously in the calling
// activity; reply is the result value and replySize its wire size in bytes.
type Handler func(env *sim.Env, from HostID, arg any) (reply any, replySize int, err error)

// Params configures per-call software overheads and loss recovery.
type Params struct {
	// ClientOverhead is CPU time charged to the caller per call (marshal,
	// trap, protocol processing on both ends folded together).
	ClientOverhead time.Duration
	// CallTimeout is how long the client waits for a reply before
	// retransmitting. Only lost messages (fault injection) ever make a call
	// wait this long.
	CallTimeout time.Duration
	// MaxRetries is how many retransmissions are attempted after the first
	// try before the call fails with ErrTimeout.
	MaxRetries int
	// RetryBackoff is the extra pause before the first retransmission,
	// doubling on each subsequent one.
	RetryBackoff time.Duration
	// BulkFragmentBytes is the payload carried by one fragment of a bulk
	// transfer (CallBulk). Fragments are pipelined: only the first in a
	// window pays the one-way latency.
	BulkFragmentBytes int
	// BulkWindow is how many bulk fragments may be in flight before the
	// sender must wait for an acknowledgement from the receiver.
	BulkWindow int
	// BulkFragOverhead is the per-fragment header cost in bytes (sequence
	// number, checksum, transaction id).
	BulkFragOverhead int
}

// DefaultParams returns Sun-3-era RPC software overhead (about 1 ms of
// processing per round trip in addition to two network traversals), with
// loss-recovery constants in the spirit of Sprite's RPC channel timeouts.
func DefaultParams() Params {
	return Params{
		ClientOverhead:    1 * time.Millisecond,
		CallTimeout:       25 * time.Millisecond,
		MaxRetries:        4,
		RetryBackoff:      10 * time.Millisecond,
		BulkFragmentBytes: 16 << 10,
		BulkWindow:        8,
		BulkFragOverhead:  32,
	}
}

// CallStats aggregates per-service call accounting.
type CallStats struct {
	Calls uint64
	Bytes uint64
	Errs  uint64
}

// Transport is the RPC fabric connecting all hosts.
type Transport struct {
	sim       *sim.Simulation
	net       *netsim.Network
	params    Params
	endpoints map[HostID]*Endpoint
	stats     map[string]*CallStats
	injector  Injector
	observer  EpochObserver
	hintObs   HintObserver

	// Metrics plane. Counter pointers are cached here so the per-call
	// cost is a handful of adds.
	m struct {
		reg      *metrics.Registry
		calls    *metrics.Counter
		bytes    *metrics.Counter
		errs     *metrics.Counter
		retries  *metrics.Counter
		timeouts *metrics.Counter
		perHost  map[HostID]*hostCounters

		bulkCalls       *metrics.Counter
		bulkBytes       *metrics.Counter
		bulkFragments   *metrics.Counter
		bulkRetransmits *metrics.Counter
	}
}

// hostCounters is the cached per-destination-host instrument set.
type hostCounters struct {
	calls *metrics.Counter
	bytes *metrics.Counter
	errs  *metrics.Counter
}

func (t *Transport) hostCounters(to HostID) *hostCounters {
	if hc, ok := t.m.perHost[to]; ok {
		return hc
	}
	hc := &hostCounters{
		calls: t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.calls", to)),
		bytes: t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.bytes", to)),
		errs:  t.m.reg.Counter(fmt.Sprintf("rpc.to.%v.errs", to)),
	}
	t.m.perHost[to] = hc
	return hc
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// on every remote call attempt. With no injector, calls never lose messages
// and the retry machinery is completely inert, keeping default runs
// bit-identical.
func (t *Transport) SetInjector(inj Injector) { t.injector = inj }

// SetEpochObserver installs (or, with nil, removes) the callback invoked
// with the server's boot epoch whenever a remote call's reply arrives.
// Observers must be pure bookkeeping: they run inside the calling activity
// and may not sleep, block, or issue further calls.
func (t *Transport) SetEpochObserver(obs EpochObserver) { t.observer = obs }

// SetHintObserver installs (or, with nil, removes) the callback receiving
// reply-piggybacked hint payloads. With no observer — or no endpoint
// provider — the piggyback machinery is completely inert.
func (t *Transport) SetHintObserver(obs HintObserver) { t.hintObs = obs }

// Retries returns the number of retransmissions performed so far.
func (t *Transport) Retries() uint64 { return uint64(t.m.retries.Value()) }

// Timeouts returns the number of calls that failed with ErrTimeout.
func (t *Transport) Timeouts() uint64 { return uint64(t.m.timeouts.Value()) }

// NewTransport returns an empty transport over the given network. Traffic is
// counted into reg: rpc.calls / rpc.bytes / rpc.errs / rpc.retries /
// rpc.timeouts, the rpc.bulk.* counters, and per-destination
// rpc.to.<host>.{calls,bytes,errs}.
func NewTransport(s *sim.Simulation, net *netsim.Network, params Params, reg *metrics.Registry) *Transport {
	t := &Transport{
		sim:       s,
		net:       net,
		params:    params,
		endpoints: make(map[HostID]*Endpoint),
		stats:     make(map[string]*CallStats),
	}
	t.m.reg = reg
	t.m.calls = reg.Counter("rpc.calls")
	t.m.bytes = reg.Counter("rpc.bytes")
	t.m.errs = reg.Counter("rpc.errs")
	t.m.retries = reg.Counter("rpc.retries")
	t.m.timeouts = reg.Counter("rpc.timeouts")
	t.m.bulkCalls = reg.Counter("rpc.bulk.calls")
	t.m.bulkBytes = reg.Counter("rpc.bulk.bytes")
	t.m.bulkFragments = reg.Counter("rpc.bulk.fragments")
	t.m.bulkRetransmits = reg.Counter("rpc.bulk.retransmits")
	t.m.perHost = make(map[HostID]*hostCounters)
	return t
}

// Register creates (or returns) the endpoint for a host.
func (t *Transport) Register(host HostID) *Endpoint {
	if ep, ok := t.endpoints[host]; ok {
		return ep
	}
	ep := &Endpoint{host: host, transport: t, services: make(map[string]Handler), epoch: 1}
	t.endpoints[host] = ep
	return ep
}

// Endpoint returns the endpoint for host, or nil if unregistered.
func (t *Transport) Endpoint(host HostID) *Endpoint { return t.endpoints[host] }

// Hosts returns all registered host ids in ascending order.
func (t *Transport) Hosts() []HostID {
	ids := make([]HostID, 0, len(t.endpoints))
	for id := range t.endpoints {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Network returns the underlying network model.
func (t *Transport) Network() *netsim.Network { return t.net }

// Stats returns a copy of the per-service call statistics.
func (t *Transport) Stats() map[string]CallStats {
	out := make(map[string]CallStats, len(t.stats))
	for k, st := range t.stats {
		out[k] = *st
	}
	return out
}

// TotalCalls returns the total number of RPCs issued.
func (t *Transport) TotalCalls() uint64 {
	var n uint64
	for _, st := range t.stats {
		n += st.Calls
	}
	return n
}

func (t *Transport) record(to HostID, service string, bytes int, failed bool) {
	st := t.stats[service]
	if st == nil {
		st = &CallStats{}
		t.stats[service] = st
	}
	st.Calls++
	st.Bytes += uint64(bytes)
	if failed {
		st.Errs++
	}
	t.m.calls.Inc()
	t.m.bytes.Add(int64(bytes))
	hc := t.hostCounters(to)
	hc.calls.Inc()
	hc.bytes.Add(int64(bytes))
	if failed {
		t.m.errs.Inc()
		hc.errs.Inc()
	}
}

// Endpoint is one host's attachment to the RPC fabric.
type Endpoint struct {
	host      HostID
	transport *Transport
	services  map[string]Handler
	down      bool
	epoch     Epoch
	hints     HintProvider
}

// Host returns the endpoint's host id.
func (e *Endpoint) Host() HostID { return e.host }

// Handle registers a service handler, replacing any previous registration.
func (e *Endpoint) Handle(service string, h Handler) { e.services[service] = h }

// SetDown marks the host unreachable (failure injection); calls to it fail
// with ErrHostDown.
func (e *Endpoint) SetDown(down bool) { e.down = down }

// Down reports whether the host is marked unreachable.
func (e *Endpoint) Down() bool { return e.down }

// Epoch returns the host's current boot incarnation.
func (e *Endpoint) Epoch() Epoch { return e.epoch }

// SetHintProvider installs (or, with nil, removes) the provider whose
// payload is piggybacked on this endpoint's remote replies. The provider
// survives Restart: piggyback state is a property of the software running
// on the host, and reinstalling it on every reboot would lose hints queued
// by handlers that already ran under the new epoch.
func (e *Endpoint) SetHintProvider(p HintProvider) { e.hints = p }

// Restart brings the host back up under a new boot epoch. It is the
// transport-level half of a reboot: the address and service table survive,
// but every reply now advertises the new incarnation so peers can tell the
// host lost its volatile state.
func (e *Endpoint) Restart() {
	e.down = false
	e.epoch++
}

// Call performs a synchronous RPC from this endpoint's host to the named
// service on host `to`. argSize and the handler's replySize are charged to
// the network.
//
// Under fault injection a request or reply message can be lost; the client
// then waits CallTimeout, backs off, and retransmits, up to MaxRetries
// times. The server executes the handler at most once per call: a
// retransmission of an already-executed call is answered from the cached
// reply (duplicate suppression by transaction id, as in Sprite RPC).
func (e *Endpoint) Call(env *sim.Env, to HostID, service string, arg any, argSize int) (any, error) {
	t := e.transport
	target, ok := t.endpoints[to]
	if !ok {
		t.record(to, service, argSize, true)
		return nil, fmt.Errorf("%w: %v", ErrNoHost, to)
	}
	if target.down || e.down {
		t.record(to, service, argSize, true)
		return nil, fmt.Errorf("%w: %v", ErrHostDown, to)
	}
	if e.host == to {
		// Local shortcut: no network, no protocol overhead, no faults.
		h, ok := target.services[service]
		if !ok {
			t.record(to, service, argSize, true)
			return nil, fmt.Errorf("%w: %s on %v", ErrNoService, service, to)
		}
		reply, _, err := h(env, e.host, arg)
		t.record(to, service, 0, err != nil)
		return reply, err
	}
	h, ok := target.services[service]
	if !ok {
		t.record(to, service, argSize, true)
		return nil, fmt.Errorf("%w: %s on %v", ErrNoService, service, to)
	}
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return nil, err
	}
	executed := false
	var reply any
	var replySize int
	var herr error
	var hintPayload any
	for attempt := 0; ; attempt++ {
		// A host that went down between attempts fails fast, like a channel
		// reset in Sprite RPC.
		if target.down || e.down {
			t.record(to, service, argSize, true)
			return nil, fmt.Errorf("%w: %v", ErrHostDown, to)
		}
		var v Verdict
		if t.injector != nil {
			v = t.injector.Intercept(env, e.host, to, service, attempt)
		}
		if v.Delay > 0 {
			if err := env.Sleep(v.Delay); err != nil {
				return nil, err
			}
		}
		if v.DropRequest {
			if err := e.awaitRetry(env, to, service, attempt); err != nil {
				t.record(to, service, argSize, true)
				return nil, err
			}
			continue
		}
		if err := t.net.Send(env, argSize); err != nil {
			return nil, err
		}
		if !executed {
			reply, replySize, herr = h(env, e.host, arg)
			if target.hints != nil {
				var hintSize int
				hintPayload, hintSize = target.hints()
				replySize += hintSize
			}
			executed = true
		}
		if v.DropReply {
			if err := e.awaitRetry(env, to, service, attempt); err != nil {
				t.record(to, service, argSize, true)
				return nil, err
			}
			continue
		}
		if err := t.net.Send(env, replySize); err != nil {
			return nil, err
		}
		t.record(to, service, argSize+replySize, herr != nil)
		if t.observer != nil {
			t.observer(to, target.epoch)
		}
		if t.hintObs != nil && hintPayload != nil {
			t.hintObs(e.host, to, hintPayload)
		}
		return reply, herr
	}
}

// callTimeout returns the retransmission timeout, defaulted.
func (t *Transport) callTimeout() time.Duration {
	if t.params.CallTimeout > 0 {
		return t.params.CallTimeout
	}
	return 25 * time.Millisecond
}

// awaitRetry charges the client the retransmission timeout plus exponential
// backoff, or fails the call with ErrTimeout once the retry budget is spent.
func (e *Endpoint) awaitRetry(env *sim.Env, to HostID, service string, attempt int) error {
	t := e.transport
	if err := env.Sleep(t.callTimeout()); err != nil {
		return err
	}
	if attempt >= t.params.MaxRetries {
		t.m.timeouts.Inc()
		return fmt.Errorf("%w: %s to %v after %d attempts", ErrTimeout, service, to, attempt+1)
	}
	t.m.retries.Inc()
	if b := t.params.RetryBackoff; b > 0 {
		return env.Sleep(b << uint(attempt))
	}
	return nil
}

// Broadcast delivers arg to the named service on every other registered host
// that is up and implements it, returning the replies keyed by host. It
// models one multicast packet on the wire plus one reply message per
// responder.
// Broadcasts are unreliable datagrams: a host that misses the multicast or
// whose reply is lost simply looks like a non-responder, so fault injection
// prunes responders instead of triggering retransmission.
func (e *Endpoint) Broadcast(env *sim.Env, service string, arg any, argSize int) (map[HostID]any, error) {
	t := e.transport
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return nil, err
	}
	if err := t.net.Send(env, argSize); err != nil {
		return nil, err
	}
	replies := make(map[HostID]any)
	for _, id := range t.Hosts() {
		if id == e.host {
			continue
		}
		target := t.endpoints[id]
		if target.down {
			continue
		}
		h, ok := target.services[service]
		if !ok {
			continue
		}
		if t.injector != nil {
			v := t.injector.Intercept(env, e.host, id, service, 0)
			if v.DropRequest || v.DropReply {
				continue
			}
		}
		reply, replySize, err := h(env, e.host, arg)
		if err != nil {
			continue
		}
		if err := t.net.Send(env, replySize); err != nil {
			return nil, err
		}
		t.record(id, service+".bcast", argSize+replySize, false)
		if t.observer != nil {
			t.observer(id, target.epoch)
		}
		replies[id] = reply
	}
	return replies, nil
}
