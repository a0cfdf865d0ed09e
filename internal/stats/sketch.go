package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sketch is an online, mergeable quantile sketch with a bounded relative
// error, in the style of DDSketch [Masson et al., VLDB 2019]: observations
// land in logarithmically spaced buckets, so any reported quantile is within
// a factor of (1 ± alpha) of the exact sample quantile at the same rank.
// Memory is proportional to the dynamic range of the data (a few hundred
// buckets for nanoseconds-to-hours of durations), never to the number of
// observations, which is what lets every migration in a long run feed one
// sketch cheaply.
//
// The zero value is not usable; construct with NewSketch. All operations are
// deterministic functions of the inserted values, so sketches are safe to
// include in golden snapshots.
type Sketch struct {
	alpha  float64 // relative accuracy target
	gamma  float64 // bucket growth factor: (1+alpha)/(1-alpha)
	lgamma float64 // log(gamma), cached

	pos  map[int]uint64 // buckets for v > 0: index ceil(log_gamma v)
	neg  map[int]uint64 // buckets for v < 0, keyed by |v|'s index
	zero uint64         // exact zeros

	n        uint64
	min, max float64
}

// DefaultSketchAccuracy is the relative error used when NewSketch is given
// a non-positive alpha: quantiles within 1% of the exact value.
const DefaultSketchAccuracy = 0.01

// NewSketch returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1; non-positive values select DefaultSketchAccuracy).
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAccuracy
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:  alpha,
		gamma:  gamma,
		lgamma: math.Log(gamma),
		pos:    make(map[int]uint64),
		neg:    make(map[int]uint64),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy target.
func (s *Sketch) Alpha() float64 { return s.alpha }

// N returns the number of recorded observations.
func (s *Sketch) N() uint64 { return s.n }

// Min returns the smallest observation (0 for an empty sketch).
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty sketch).
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Add records one observation. NaN is ignored; infinities are clamped to
// ±MaxFloat64 so they land in the extreme buckets instead of poisoning the
// index arithmetic.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	} else if math.IsInf(v, -1) {
		v = -math.MaxFloat64
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	switch {
	case v > 0:
		s.pos[s.bucket(v)]++
	case v < 0:
		s.neg[s.bucket(-v)]++
	default:
		s.zero++
	}
}

// bucket maps a positive magnitude to its log-spaced bucket index.
func (s *Sketch) bucket(v float64) int {
	return int(math.Ceil(math.Log(v) / s.lgamma))
}

// value returns the representative magnitude of bucket i: the bucket
// midpoint 2*gamma^i/(gamma+1), which is within alpha of every value the
// bucket can hold.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Merge folds other into s. Both sketches must share the same accuracy
// (merging differently sized buckets would silently void the error bound).
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("stats: cannot merge sketches with alpha %v and %v", s.alpha, other.alpha)
	}
	for i, c := range other.pos {
		s.pos[i] += c
	}
	for i, c := range other.neg {
		s.neg[i] += c
	}
	s.zero += other.zero
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	return nil
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1): the
// representative value of the bucket holding the observation of rank
// round(q*(n-1)) in sorted order. The estimate is within a relative factor
// of alpha of that observation's true value (exact for zeros, and pinned to
// the true min/max at the extremes). An empty sketch reports 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(math.Round(q * float64(s.n-1)))

	// Walk the value axis in ascending order: negative buckets from the
	// most negative (largest magnitude) down, then zeros, then positive
	// buckets ascending.
	negIdx := sortedKeys(s.neg)
	cum := uint64(0)
	for j := len(negIdx) - 1; j >= 0; j-- {
		i := negIdx[j]
		cum += s.neg[i]
		if rank < cum {
			return clamp(-s.value(i), s.min, s.max)
		}
	}
	cum += s.zero
	if rank < cum {
		return 0
	}
	for _, i := range sortedKeys(s.pos) {
		cum += s.pos[i]
		if rank < cum {
			return clamp(s.value(i), s.min, s.max)
		}
	}
	return s.max
}

func sortedKeys(m map[int]uint64) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Buckets returns the number of occupied buckets (a memory gauge).
func (s *Sketch) Buckets() int {
	n := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		n++
	}
	return n
}
