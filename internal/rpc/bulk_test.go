package rpc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/sim"
)

// newBulkFabric builds a two-plus-host fabric with the full default protocol
// parameters (retry machinery armed) and a reasonably fast link, so latency
// amortization — the point of the bulk path — is visible.
func newBulkFabric(t testing.TB, hosts int) (*sim.Simulation, *Transport) {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Params{Latency: 500 * time.Microsecond, BandwidthBytesPerSec: 10 << 20})
	tr := NewTransport(s, net, DefaultParams(), metrics.New())
	for i := 1; i <= hosts; i++ {
		tr.Register(HostID(i))
	}
	return s, tr
}

// scriptInjector adapts a closure to the Injector interface for per-test
// fault scripts.
type scriptInjector struct {
	fn func(service string, attempt int) Verdict
}

func (si *scriptInjector) Intercept(env *sim.Env, from, to HostID, service string, attempt int) Verdict {
	return si.fn(service, attempt)
}

func TestCallBulkOutDeliversAndBeatsPerFragmentCalls(t *testing.T) {
	s, tr := newBulkFabric(t, 2)
	const payload = 256 << 10 // 16 fragments at the default 16KiB
	var handled int
	var gotArg any
	tr.Endpoint(2).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		handled++
		gotArg = arg
		return "done", 16, nil
	})
	tr.Endpoint(2).Handle("unit", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return nil, 16, nil
	})
	var bs BulkStats
	var reply any
	var bulkTook, callsTook time.Duration
	s.Spawn("caller", func(env *sim.Env) error {
		t0 := env.Now()
		var err error
		reply, bs, err = tr.Endpoint(1).CallBulk(env, 2, "blob", "hdr", 64, payload, BulkOut)
		if err != nil {
			return err
		}
		bulkTook = env.Now() - t0
		// The ablation: the same bytes as 16 independent 16KiB calls.
		t0 = env.Now()
		for i := 0; i < 16; i++ {
			if _, err := tr.Endpoint(1).Call(env, 2, "unit", nil, 16<<10); err != nil {
				return err
			}
		}
		callsTook = env.Now() - t0
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if handled != 1 || gotArg != "hdr" || reply != "done" {
		t.Fatalf("handler ran %d times, arg %v, reply %v", handled, gotArg, reply)
	}
	if bs.Calls != 1 || bs.Fragments != 16 || bs.Bytes != payload || bs.Retransmits != 0 {
		t.Fatalf("stats = %+v", bs)
	}
	if bulkTook >= callsTook {
		t.Fatalf("bulk transfer %v not cheaper than %v of per-fragment calls", bulkTook, callsTook)
	}
}

func TestCallBulkInStreamsReplyPayload(t *testing.T) {
	s, tr := newBulkFabric(t, 2)
	data := bytes.Repeat([]byte{0xAB}, 64<<10)
	tr.Endpoint(2).Handle("fetch", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return data, len(data), nil
	})
	var bs BulkStats
	var reply any
	s.Spawn("caller", func(env *sim.Env) error {
		var err error
		reply, bs, err = tr.Endpoint(1).CallBulk(env, 2, "fetch", nil, 32, 0, BulkIn)
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, ok := reply.([]byte); !ok || !bytes.Equal(got, data) {
		t.Fatalf("reply = %T (%d bytes)", reply, len(data))
	}
	if bs.Fragments != 4 || bs.Bytes != len(data) || bs.Retransmits != 0 {
		t.Fatalf("stats = %+v", bs)
	}
}

// TestCallBulkFragmentDropRetransmits: one fragment lost mid-batch costs a
// retransmission timeout but the transfer completes, delivering every byte
// exactly once.
func TestCallBulkFragmentDropRetransmits(t *testing.T) {
	s, tr := newBulkFabric(t, 2)
	frag := 0
	tr.SetInjector(&scriptInjector{fn: func(service string, attempt int) Verdict {
		if service != "blob.frag" {
			return Verdict{}
		}
		frag++
		if frag == 3 && attempt == 0 {
			return Verdict{DropRequest: true}
		}
		return Verdict{}
	}})
	var handled int
	tr.Endpoint(2).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		handled++
		return nil, 16, nil
	})
	var bs BulkStats
	s.Spawn("caller", func(env *sim.Env) error {
		_, st, err := tr.Endpoint(1).CallBulk(env, 2, "blob", nil, 32, 128<<10, BulkOut)
		bs = st
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want 1", handled)
	}
	if bs.Fragments != 8 || bs.Bytes != 128<<10 || bs.Retransmits != 1 {
		t.Fatalf("stats = %+v, want 8 fragments and exactly 1 retransmit", bs)
	}
	if got := tr.Retries(); got != 1 {
		t.Fatalf("transport retries = %d, want 1", got)
	}
}

// TestCallBulkPersistentFragmentLossTimesOut: a fragment that never gets
// through exhausts MaxRetries and surfaces ErrTimeout; the handler never runs
// (the write must not be applied from a half-delivered batch).
func TestCallBulkPersistentFragmentLossTimesOut(t *testing.T) {
	s, tr := newBulkFabric(t, 2)
	tr.SetInjector(&scriptInjector{fn: func(service string, attempt int) Verdict {
		if service == "blob.frag" {
			return Verdict{DropRequest: true}
		}
		return Verdict{}
	}})
	var handled int
	tr.Endpoint(2).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		handled++
		return nil, 16, nil
	})
	var bs BulkStats
	var cerr error
	s.Spawn("caller", func(env *sim.Env) error {
		_, bs, cerr = tr.Endpoint(1).CallBulk(env, 2, "blob", nil, 32, 64<<10, BulkOut)
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(cerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", cerr)
	}
	if handled != 0 {
		t.Fatalf("handler ran %d times on a failed batch", handled)
	}
	if bs.Retransmits != DefaultParams().MaxRetries {
		t.Fatalf("retransmits = %d, want %d (MaxRetries)", bs.Retransmits, DefaultParams().MaxRetries)
	}
}

// TestCallBulkFragmentDelayAddsLatencyOnly: a delayed fragment slows the
// stream by exactly the injected delay — no retransmission, no byte loss.
func TestCallBulkFragmentDelayAddsLatencyOnly(t *testing.T) {
	const delay = 5 * time.Millisecond
	run := func(inj Injector) (time.Duration, BulkStats) {
		s, tr := newBulkFabric(t, 2)
		tr.SetInjector(inj)
		tr.Endpoint(2).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
			return nil, 16, nil
		})
		var took time.Duration
		var bs BulkStats
		s.Spawn("caller", func(env *sim.Env) error {
			var err error
			_, bs, err = tr.Endpoint(1).CallBulk(env, 2, "blob", nil, 32, 64<<10, BulkOut)
			took = env.Now()
			return err
		})
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return took, bs
	}
	clean, cleanStats := run(nil)
	delayed, delayedStats := run(&scriptInjector{fn: func(service string, attempt int) Verdict {
		if service == "blob.frag" && attempt == 0 {
			return Verdict{Delay: delay}
		}
		return Verdict{}
	}})
	if delayedStats.Retransmits != 0 || delayedStats.Fragments != cleanStats.Fragments {
		t.Fatalf("delayed stats = %+v, clean %+v", delayedStats, cleanStats)
	}
	if want := clean + 4*delay; delayed != want { // 4 fragments, each delayed once
		t.Fatalf("delayed run took %v, want %v (clean %v + 4x%v)", delayed, want, clean, delay)
	}
}

func TestCallBulkLocalShortcutIsFree(t *testing.T) {
	s, tr := newBulkFabric(t, 1)
	tr.Endpoint(1).Handle("blob", func(env *sim.Env, from HostID, arg any) (any, int, error) {
		return "ok", 8, nil
	})
	var took time.Duration
	var bs BulkStats
	s.Spawn("caller", func(env *sim.Env) error {
		var err error
		_, bs, err = tr.Endpoint(1).CallBulk(env, 1, "blob", nil, 32, 1<<20, BulkOut)
		took = env.Now()
		return err
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if took != 0 {
		t.Fatalf("local bulk call took %v, want 0", took)
	}
	if tr.Network().Messages() != 0 {
		t.Fatal("local bulk call touched the network")
	}
	if bs.Calls != 1 || bs.Fragments != 0 {
		t.Fatalf("stats = %+v", bs)
	}
}
