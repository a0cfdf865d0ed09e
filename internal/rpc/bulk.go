package rpc

import (
	"fmt"

	"sprite/internal/sim"
)

// BulkDir selects which way a bulk transfer's payload flows.
type BulkDir int

const (
	// BulkOut streams the payload from the caller to the server before the
	// handler runs (bulk write).
	BulkOut BulkDir = iota
	// BulkIn runs the handler first and streams its reply payload back to
	// the caller (bulk read).
	BulkIn
)

// BulkStats reports what one CallBulk cost on the wire.
type BulkStats struct {
	// Calls is the number of bulk transfers (1 per CallBulk; summed by Add).
	Calls int
	// Fragments is the number of distinct payload fragments delivered.
	Fragments int
	// Retransmits counts fragment retransmissions forced by loss.
	Retransmits int
	// Bytes is the payload bytes streamed, fragment headers excluded.
	Bytes int
}

// Add accumulates another transfer's stats into s.
func (s *BulkStats) Add(o BulkStats) {
	s.Calls += o.Calls
	s.Fragments += o.Fragments
	s.Retransmits += o.Retransmits
	s.Bytes += o.Bytes
}

// CallBulk performs a bulk-transfer RPC: one handshake round trip that sets
// up the stream (carrying arg, like a normal request), then the payload as a
// windowed sequence of pipelined fragments. Within a window only the leading
// fragment pays one-way latency; the rest ride the pipe and are charged
// transfer time alone, which is what makes bulk transfer cheaper than
// len(payload)/fragment independent RPCs.
//
// With dir == BulkOut the payload travels caller→server and the handler runs
// once the last fragment lands, exactly like a vectored write. With dir ==
// BulkIn the handler runs right after the handshake and its replySize is
// streamed back caller-ward, like a read-ahead fill. payloadBytes is the
// outbound payload size and is ignored for BulkIn.
//
// Fault injection applies per fragment under the service name
// "<service>.frag": a dropped or timed-out fragment waits out the
// retransmission timeout (with backoff) and is selectively resent, counting
// into BulkStats.Retransmits and the rpc.bulk.retransmits metric. The
// handshake and the final reply use the ordinary per-attempt retry loop
// under the plain service name.
func (e *Endpoint) CallBulk(env *sim.Env, to HostID, service string, arg any, argSize, payloadBytes int, dir BulkDir) (any, BulkStats, error) {
	t := e.transport
	var bs BulkStats
	target, ok := t.endpoints[to]
	if !ok {
		t.record(to, service, argSize, true)
		return nil, bs, fmt.Errorf("%w: %v", ErrNoHost, to)
	}
	if target.down || e.down {
		t.record(to, service, argSize, true)
		return nil, bs, fmt.Errorf("%w: %v", ErrHostDown, to)
	}
	if e.host == to {
		// Local shortcut: no network, no protocol overhead, no faults.
		h, ok := target.services[service]
		if !ok {
			t.record(to, service, argSize, true)
			return nil, bs, fmt.Errorf("%w: %s on %v", ErrNoService, service, to)
		}
		bs.Calls = 1
		reply, _, err := h(env, e.host, arg)
		t.record(to, service, 0, err != nil)
		return reply, bs, err
	}
	h, ok := target.services[service]
	if !ok {
		t.record(to, service, argSize, true)
		return nil, bs, fmt.Errorf("%w: %s on %v", ErrNoService, service, to)
	}
	bs.Calls = 1
	if err := env.Sleep(t.params.ClientOverhead); err != nil {
		return nil, bs, err
	}
	wire := argSize + t.fragOverhead()
	if err := e.bulkControl(env, target, service, argSize, t.fragOverhead()); err != nil {
		t.record(to, service, wire, true)
		return nil, bs, err
	}
	var reply any
	var replySize int
	var herr error
	switch dir {
	case BulkOut:
		w, err := e.streamFragments(env, target, service, payloadBytes, &bs)
		wire += w
		if err != nil {
			t.record(to, service, wire, true)
			t.recordBulk(&bs)
			return nil, bs, err
		}
		reply, replySize, herr = h(env, e.host, arg)
		// Reply leg: a small control message, retried on loss like a
		// normal reply (the server answers retransmissions from its
		// cached reply without re-running the handler).
		if err := e.bulkControl(env, target, service, replySize, 0); err != nil {
			t.record(to, service, wire+replySize, true)
			t.recordBulk(&bs)
			return nil, bs, err
		}
		wire += replySize
	case BulkIn:
		reply, replySize, herr = h(env, e.host, arg)
		if herr == nil {
			w, err := e.streamFragments(env, target, service, replySize, &bs)
			wire += w
			if err != nil {
				t.record(to, service, wire, true)
				t.recordBulk(&bs)
				return nil, bs, err
			}
		} else if err := e.bulkControl(env, target, service, t.fragOverhead(), 0); err != nil {
			// The error reply is a plain small message.
			t.record(to, service, wire, true)
			return nil, bs, err
		}
	default:
		return nil, bs, fmt.Errorf("rpc: unknown bulk direction %d", dir)
	}
	t.record(to, service, wire, herr != nil)
	t.recordBulk(&bs)
	return reply, bs, herr
}

// fragOverhead returns the per-fragment header size, defaulted.
func (t *Transport) fragOverhead() int {
	if t.params.BulkFragOverhead > 0 {
		return t.params.BulkFragOverhead
	}
	return 32
}

// fragSize returns the fragment payload size, defaulted.
func (t *Transport) fragSize() int {
	if t.params.BulkFragmentBytes > 0 {
		return t.params.BulkFragmentBytes
	}
	return 16 << 10
}

// window returns the bulk window size in fragments, defaulted.
func (t *Transport) window() int {
	if t.params.BulkWindow > 0 {
		return t.params.BulkWindow
	}
	return 8
}

// recordBulk folds one transfer's stats into the bulk metrics counters.
func (t *Transport) recordBulk(bs *BulkStats) {
	t.m.bulkCalls.Inc()
	t.m.bulkBytes.Add(int64(bs.Bytes))
	t.m.bulkFragments.Add(int64(bs.Fragments))
	t.m.bulkRetransmits.Add(int64(bs.Retransmits))
}

// bulkControl delivers one small control round trip (handshake or final
// reply) under the plain service name, with the standard per-attempt retry
// loop: lost request or lost acknowledgement costs a timeout plus backoff
// and is retransmitted, up to MaxRetries.
func (e *Endpoint) bulkControl(env *sim.Env, target *Endpoint, service string, reqSize, ackSize int) error {
	t := e.transport
	for attempt := 0; ; attempt++ {
		if target.down || e.down {
			return fmt.Errorf("%w: %v", ErrHostDown, target.host)
		}
		var v Verdict
		if t.injector != nil {
			v = t.injector.Intercept(env, e.host, target.host, service, attempt)
		}
		if v.Delay > 0 {
			if err := env.Sleep(v.Delay); err != nil {
				return err
			}
		}
		if v.DropRequest {
			if err := e.awaitRetry(env, target.host, service, attempt); err != nil {
				return err
			}
			continue
		}
		if err := t.net.Send(env, reqSize); err != nil {
			return err
		}
		if ackSize <= 0 {
			return nil
		}
		if v.DropReply {
			if err := e.awaitRetry(env, target.host, service, attempt); err != nil {
				return err
			}
			continue
		}
		return t.net.Send(env, ackSize)
	}
}

// streamFragments delivers payload bytes as the windowed fragment stream and
// returns the wire bytes charged (payload plus headers, retransmissions
// included). A fragment the injector drops waits out the retransmission
// timeout and is selectively resent; the resend restarts the pipeline, so
// it pays the one-way latency again.
func (e *Endpoint) streamFragments(env *sim.Env, target *Endpoint, service string, payload int, bs *BulkStats) (int, error) {
	t := e.transport
	fragSize := t.fragSize()
	window := t.window()
	overhead := t.fragOverhead()
	frags := (payload + fragSize - 1) / fragSize
	if frags <= 0 {
		return 0, nil
	}
	latency := t.net.Params().Latency
	rtt := 2 * latency
	// If a whole window transfers faster than its ack can return, the
	// sender stalls for the difference at every window boundary.
	wstall := rtt - t.net.TransferTime(window*(fragSize+overhead))
	if wstall < 0 {
		wstall = 0
	}
	// Pipeline fill: the stream's leading edge pays the one-way latency.
	if err := env.Sleep(latency); err != nil {
		return 0, err
	}
	fragService := service + ".frag"
	wire := 0
	remaining := payload
	for i := 0; i < frags; i++ {
		n := fragSize
		if n > remaining {
			n = remaining
		}
		remaining -= n
		size := n + overhead
		for attempt := 0; ; attempt++ {
			if target.down || e.down {
				return wire, fmt.Errorf("%w: %v", ErrHostDown, target.host)
			}
			var v Verdict
			if t.injector != nil {
				v = t.injector.Intercept(env, e.host, target.host, fragService, attempt)
			}
			if v.Delay > 0 {
				if err := env.Sleep(v.Delay); err != nil {
					return wire, err
				}
			}
			// For a fragment, a lost ack and a lost fragment look the
			// same to the sender: the selective-repeat hole never closes
			// and the fragment is resent after the timeout.
			if v.DropRequest || v.DropReply {
				if err := e.awaitRetry(env, target.host, fragService, attempt); err != nil {
					return wire, err
				}
				bs.Retransmits++
				// The resend restarts the pipeline.
				if err := env.Sleep(latency); err != nil {
					return wire, err
				}
				continue
			}
			err := t.net.SendPipelined(env, size)
			wire += size
			if err != nil {
				return wire, err
			}
			break
		}
		bs.Fragments++
		bs.Bytes += n
		if wstall > 0 && (i+1)%window == 0 && i+1 < frags {
			if err := env.Sleep(wstall); err != nil {
				return wire, err
			}
		}
	}
	// Drain: the last fragment propagates to the receiver and its
	// cumulative ack comes back.
	if err := env.Sleep(rtt); err != nil {
		return wire, err
	}
	return wire, nil
}
