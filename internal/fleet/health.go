package fleet

import (
	"math"
	"time"
)

// signal is an exponentially-decayed event-rate accumulator: each bump
// adds weight, and the accumulated value halves every half-life. Because
// decay is a pure function of the gap between virtual timestamps, a
// signal's trajectory is identical on every rerun.
type signal struct {
	value float64
	last  time.Duration
}

// bump decays the accumulator to `now` and adds w.
func (s *signal) bump(now time.Duration, halfLife time.Duration, w float64) {
	s.value = s.at(now, halfLife) + w
	s.last = now
}

// at returns the decayed value at time now without mutating the signal.
func (s *signal) at(now time.Duration, halfLife time.Duration) float64 {
	if s.value == 0 {
		return 0
	}
	dt := now - s.last
	if dt <= 0 {
		return s.value
	}
	if halfLife <= 0 {
		return 0
	}
	return s.value * math.Exp2(-float64(dt)/float64(halfLife))
}
