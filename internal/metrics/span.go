package metrics

import (
	"fmt"
	"time"
)

// Span is a phase timer: started at one virtual-time instant, ended (or
// aborted) at another. Ending records the elapsed time into the registry
// timing of the span's name and, when the registry has a trace sink,
// emits one "span" event — which is how phase timers layer onto
// internal/trace. Aborting records nothing in the timing (a half-run phase
// has no duration worth averaging) but counts under "<name>.aborted", so
// interrupted work stays visible without polluting the latency data.
//
// Spans carry virtual time explicitly (the simulator's clock, not the wall
// clock): callers pass env.Now() at both ends.
type Span struct {
	reg   *Registry
	name  string
	start time.Duration
	done  bool
}

// StartSpan opens a phase timer at virtual time now.
func (r *Registry) StartSpan(name string, now time.Duration) *Span {
	return &Span{reg: r, name: name, start: now}
}

// End closes the span at virtual time now, records the elapsed duration,
// and returns it. A second End (or End after Abort) is a no-op returning 0.
func (s *Span) End(now time.Duration) time.Duration {
	if s == nil || s.done {
		return 0
	}
	s.done = true
	d := now - s.start
	s.reg.Timing(s.name).Observe(d) //spritelint:allow metricname name was convention-checked at StartSpan; this is a re-lookup of the same string
	if emit := s.emitFn(); emit != nil {
		emit(now, "span", fmt.Sprintf("%s took %v", s.name, d))
	}
	return d
}

// Abort closes the span without recording a duration; the interruption is
// counted under "<name>.aborted".
func (s *Span) Abort(now time.Duration) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.reg.Counter(s.name + ".aborted").Inc()
	if emit := s.emitFn(); emit != nil {
		emit(now, "span", fmt.Sprintf("%s aborted after %v", s.name, now-s.start))
	}
}

func (s *Span) emitFn() func(at time.Duration, kind, detail string) {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return s.reg.emit
}
