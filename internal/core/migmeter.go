package core

import (
	"time"

	"sprite/internal/metrics"
	"sprite/internal/sim"
)

// migMeter drives the metrics plane's view of one migration: the
// started/completed/aborted counters and one span per phase
// (mig.phase.negotiate, mig.phase.vm.<strategy>, mig.phase.streams,
// mig.phase.pcb, mig.phase.resume). An aborted migration records no phase
// duration — the interrupted phase surfaces through mig.aborted.<phase>
// and mig.phase.<name>.aborted counters instead — so the latency series
// contain only completed work and the invariant started == completed +
// aborted + inflight holds at every instant. There is no live in-flight
// gauge: mig.inflight is derived from the counters at snapshot time
// (Cluster.MetricsSnapshot), where the identity above makes the level exact.
type migMeter struct {
	reg   *metrics.Registry
	span  *metrics.Span
	phase string
	done  bool
}

func newMigMeter(reg *metrics.Registry) *migMeter {
	reg.Counter("mig.started").Inc()
	return &migMeter{reg: reg}
}

// next closes the current phase span, opens the next one, and returns the
// closed phase's duration (zero for the first call).
func (m *migMeter) next(env *sim.Env, phase string) time.Duration {
	return m.nextAt(phase, env.Now())
}

// nextAt is next with an explicit boundary time. Overlapped phases use it to
// keep the spans tiling Total exactly: when stream transfer runs concurrently
// with the VM transfer, the vm span is closed retroactively at the instant
// the VM work finished and the streams span covers only the tail that
// outlived it (zero if the streams finished first).
func (m *migMeter) nextAt(phase string, at time.Duration) time.Duration {
	d := m.span.End(at)
	m.phase = phase
	m.span = m.reg.StartSpan("mig.phase."+phase, at)
	return d
}

// complete closes the final phase span and retires the migration as
// completed, returning the final phase's duration.
func (m *migMeter) complete(env *sim.Env) time.Duration {
	if m.done {
		return 0
	}
	m.done = true
	d := m.span.End(env.Now())
	m.reg.Counter("mig.completed").Inc()
	return d
}

// abort retires the migration as aborted, charging the interruption to the
// phase that was in flight.
func (m *migMeter) abort(env *sim.Env) {
	if m.done {
		return
	}
	m.done = true
	m.span.Abort(env.Now())
	m.reg.Counter("mig.aborted").Inc()
	if m.phase != "" {
		m.reg.Counter("mig.aborted." + m.phase).Inc()
	}
}

// observeTotals records the finished migration's whole-record series: total
// and freeze latency (overall and per strategy) plus the byte/page/file
// volume counters.
func (m *migMeter) observeTotals(rec *MigrationRecord) {
	m.reg.Timing("mig.total").Observe(rec.Total)
	m.reg.Timing("mig.total." + rec.Strategy).Observe(rec.Total)
	m.reg.Timing("mig.freeze").Observe(rec.Freeze)
	m.reg.Counter("mig.vm_bytes").Add(int64(rec.VMBytes))
	m.reg.Counter("mig.files_moved").Add(int64(rec.Files))
	m.reg.Counter("mig.pages_flushed").Add(int64(rec.PagesFlushed))
	m.reg.Counter("mig.pages_copied").Add(int64(rec.PagesCopied))
	if rec.ExecTime {
		m.reg.Counter("mig.exec_time").Inc()
	}
	if rec.Residual {
		m.reg.Counter("mig.residual").Inc()
	}
	if rec.Batched {
		m.reg.Counter("mig.batch.migrations").Inc()
		m.reg.Counter("mig.batch.runs").Add(int64(rec.BatchRuns))
		m.reg.Counter("mig.batch.fragments").Add(int64(rec.BatchFragments))
		m.reg.Counter("mig.batch.retransmits").Add(int64(rec.BatchRetransmits))
	}
}
