// Package netsim models the local-area network that connects Sprite hosts:
// a 10 Mbit/s-class shared medium with per-message latency, per-byte
// bandwidth cost, and optional contention for the shared medium.
//
// The model is intentionally simple — the thesis's evaluation depends on the
// relative cost of small control messages versus bulk page/block transfer,
// not on the details of CSMA/CD.
package netsim

import (
	"time"

	"sprite/internal/sim"
)

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
// It is a pure cost model: every message is delivered. Loss and delay are
// decided one layer up, by the RPC transport's fault injector.
type Network struct {
	params Params
	medium *sim.Resource

	messages uint64
	bytes    uint64
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
// delivered (latency + transfer time), and fails only when the activity is
// interrupted while waiting.
func (n *Network) Send(env *sim.Env, bytes int) error {
	n.account(bytes)
	xfer := n.TransferTime(bytes)
	if n.medium != nil {
		if err := n.medium.Use(env, xfer); err != nil {
			return err
		}
		return env.Sleep(n.params.Latency)
	}
	return env.Sleep(n.params.Latency + xfer)
}

// SendPipelined charges the calling activity for one fragment of a pipelined
// stream: the fragment occupies the medium for its transfer time, but the
// per-message latency is not paid — in a windowed bulk protocol the
// propagation delay overlaps with the fragments already in flight, so the
// caller charges latency once per stream (and per stall), not per fragment.
// Accounting and contention behave exactly as in Send.
func (n *Network) SendPipelined(env *sim.Env, bytes int) error {
	n.account(bytes)
	xfer := n.TransferTime(bytes)
	if n.medium != nil {
		return n.medium.Use(env, xfer)
	}
	return env.Sleep(xfer)
}

// account books one message on the traffic counters. It charges no virtual
// time.
func (n *Network) account(bytes int) {
	n.messages++
	if bytes > 0 {
		n.bytes += uint64(bytes)
	}
}

// Messages returns the number of messages sent so far.
func (n *Network) Messages() uint64 { return n.messages }

// Bytes returns the cumulative payload bytes sent so far.
func (n *Network) Bytes() uint64 { return n.bytes }

// Params returns the network's configuration.
func (n *Network) Params() Params { return n.params }
