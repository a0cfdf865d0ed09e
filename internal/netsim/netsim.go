// Package netsim models the local-area network that connects Sprite hosts:
// a 10 Mbit/s-class shared medium with per-message latency, per-byte
// bandwidth cost, and optional contention for the shared medium.
//
// The model is intentionally simple — the thesis's evaluation depends on the
// relative cost of small control messages versus bulk page/block transfer,
// not on the details of CSMA/CD.
package netsim

import (
	"errors"
	"time"

	"sprite/internal/sim"
)

// ErrDropped is returned by Send when the installed fault hook decides the
// message is lost. The sender has still been charged for the transmission;
// it is the delivery that never happens. Callers at the RPC layer translate
// this into a timeout and retransmission.
var ErrDropped = errors.New("netsim: message dropped")

// Hook observes every message send and may perturb it: extra is added to the
// delivery time (congestion, routing flaps) and drop marks the message lost
// after the sender has paid for the transmission. The hook runs in the
// sending activity and must be a deterministic function of simulation state.
type Hook func(env *sim.Env, bytes int) (extra time.Duration, drop bool)

// Params configures the network model.
type Params struct {
	// Latency is the one-way delivery latency of a message, independent of
	// size (propagation + interrupt handling).
	Latency time.Duration
	// BandwidthBytesPerSec is the sustained transfer rate for message
	// payloads. Zero disables the per-byte cost.
	BandwidthBytesPerSec float64
	// Contended, when true, serializes all transfers through the shared
	// medium, as on a single Ethernet segment.
	Contended bool
}

// DefaultParams returns a 10 Mbit/s Ethernet-era configuration: 0.5 ms
// one-way latency and roughly 1 MB/s of achievable payload bandwidth.
func DefaultParams() Params {
	return Params{
		Latency:              500 * time.Microsecond,
		BandwidthBytesPerSec: 1e6,
	}
}

// Network charges virtual time for message deliveries and accounts traffic.
type Network struct {
	params Params
	medium *sim.Resource
	hook   Hook

	messages uint64
	bytes    uint64
	delayed  uint64
	dropped  uint64
}

// New returns a network bound to the simulation.
func New(s *sim.Simulation, params Params) *Network {
	n := &Network{params: params}
	if params.Contended {
		n.medium = sim.NewResource(s, 1)
	}
	return n
}

// TransferTime returns the time the payload occupies the medium.
func (n *Network) TransferTime(bytes int) time.Duration {
	if n.params.BandwidthBytesPerSec <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / n.params.BandwidthBytesPerSec * float64(time.Second))
}

// Send charges the calling activity for transmitting a message of the given
// payload size and records it. It returns after the message has been
// delivered (latency + transfer time).
func (n *Network) Send(env *sim.Env, bytes int) error {
	extra, drop := n.account(env, bytes)
	xfer := n.TransferTime(bytes)
	if n.medium != nil {
		if err := n.medium.Use(env, xfer); err != nil {
			return err
		}
		if err := env.Sleep(n.params.Latency + extra); err != nil {
			return err
		}
	} else if err := env.Sleep(n.params.Latency + xfer + extra); err != nil {
		return err
	}
	if drop {
		n.dropped++
		return ErrDropped
	}
	return nil
}

// SendPipelined charges the calling activity for one fragment of a pipelined
// stream: the fragment occupies the medium for its transfer time, but the
// per-message latency is not paid — in a windowed bulk protocol the
// propagation delay overlaps with the fragments already in flight, so the
// caller charges latency once per stream (and per stall), not per fragment.
// Accounting, the fault hook, and contention behave exactly as in Send.
func (n *Network) SendPipelined(env *sim.Env, bytes int) error {
	extra, drop := n.account(env, bytes)
	xfer := n.TransferTime(bytes)
	if n.medium != nil {
		if err := n.medium.Use(env, xfer); err != nil {
			return err
		}
		if extra > 0 {
			if err := env.Sleep(extra); err != nil {
				return err
			}
		}
	} else if err := env.Sleep(xfer + extra); err != nil {
		return err
	}
	if drop {
		n.dropped++
		return ErrDropped
	}
	return nil
}

// account books one message on the traffic counters and consults the fault
// hook. It charges no virtual time.
func (n *Network) account(env *sim.Env, bytes int) (extra time.Duration, drop bool) {
	n.messages++
	if bytes > 0 {
		n.bytes += uint64(bytes)
	}
	if n.hook != nil {
		extra, drop = n.hook(env, bytes)
		if extra > 0 {
			n.delayed++
		}
	}
	return extra, drop
}

// Latency returns the one-way propagation latency.
func (n *Network) Latency() time.Duration { return n.params.Latency }

// SetHook installs (or, with nil, removes) the fault hook consulted on every
// Send. With no hook installed, Send behaves exactly as before — the default
// path stays bit-identical for golden runs.
func (n *Network) SetHook(h Hook) { n.hook = h }

// Messages returns the number of messages sent so far.
func (n *Network) Messages() uint64 { return n.messages }

// Bytes returns the cumulative payload bytes sent so far.
func (n *Network) Bytes() uint64 { return n.bytes }

// Dropped returns the number of messages the fault hook discarded.
func (n *Network) Dropped() uint64 { return n.dropped }

// Delayed returns the number of messages the fault hook slowed down.
func (n *Network) Delayed() uint64 { return n.delayed }

// Params returns the network's configuration.
func (n *Network) Params() Params { return n.params }
