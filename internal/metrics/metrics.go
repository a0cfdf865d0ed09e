// Package metrics is the cluster's observability plane: a registry of
// named counters, gauges, and duration timings that every layer (rpc, fs,
// core, sim, hostsel) feeds and one deterministic snapshot reports.
//
// Design constraints, in order:
//
//   - Cheap when ignored. A counter increment is one atomic add; nothing
//     allocates on the hot path once the counter pointer is cached. No
//     instrument ever touches simulated time, so installing the plane
//     cannot perturb golden outputs.
//   - Deterministic when read. Snapshot output is sorted by name and every
//     rendered value is a pure function of the recorded observations, so
//     two same-seed runs produce byte-identical snapshots.
//   - Mergeable. Timings carry quantile sketches (internal/stats.Sketch)
//     whose merge keeps the relative-error bound, so per-host timings can
//     roll up into cluster ones.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sprite/internal/stats"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any sign; use Gauge for values meant to go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, in-flight migrations).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	g.bumpMax(n)
}

// Add moves the level by n and returns the new value.
func (g *Gauge) Add(n int64) int64 {
	v := g.v.Add(n)
	g.bumpMax(v)
	return v
}

func (g *Gauge) bumpMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since creation.
func (g *Gauge) Max() int64 { return g.max.Load() }

// TimingBuckets configures the fixed histogram under every Timing: bucket
// i counts observations in [Lo + i*Width, Lo + (i+1)*Width).
type TimingBuckets struct {
	Lo      time.Duration
	Width   time.Duration
	Buckets int
}

// DefaultTimingBuckets spans 0..1s in 10 ms steps — the range of one
// migration phase at the thesis's hardware scale.
var DefaultTimingBuckets = TimingBuckets{Lo: 0, Width: 10 * time.Millisecond, Buckets: 100}

// timingAcc is a Timing's accumulator state.
type timingAcc struct {
	n        uint64
	sum      time.Duration
	min, max time.Duration
	hist     *stats.Histogram
	sketch   *stats.Sketch
}

func (a *timingAcc) observe(d time.Duration) {
	if a.n == 0 || d < a.min {
		a.min = d
	}
	if a.n == 0 || d > a.max {
		a.max = d
	}
	a.n++
	a.sum += d
	a.hist.Add(d.Seconds())
	a.sketch.Add(d.Seconds())
}

// Timing accumulates duration observations: count, sum, min, max, a
// fixed-bucket histogram, and an online quantile sketch.
type Timing struct {
	mu sync.Mutex
	timingAcc
}

func newTiming(b TimingBuckets) *Timing {
	if b.Buckets <= 0 {
		b = DefaultTimingBuckets
	}
	return &Timing{timingAcc: timingAcc{
		hist:   stats.NewHistogram(b.Lo.Seconds(), b.Width.Seconds(), b.Buckets),
		sketch: stats.NewSketch(stats.DefaultSketchAccuracy),
	}}
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observe(d)
}

// fold returns a consistent copy of the scalar accumulators plus a copy of
// the sketch that the caller owns.
func (t *Timing) fold() (acc timingAcc, sketch *stats.Sketch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	acc = t.timingAcc
	sketch = stats.NewSketch(acc.sketch.Alpha())
	_ = sketch.Merge(acc.sketch)
	return acc, sketch
}

// N returns the number of observations.
func (t *Timing) N() uint64 {
	acc, _ := t.fold()
	return acc.n
}

// Sum returns the total of all observations.
func (t *Timing) Sum() time.Duration {
	acc, _ := t.fold()
	return acc.sum
}

// Quantile returns the approximate q-th quantile (see stats.Sketch).
func (t *Timing) Quantile(q float64) time.Duration {
	_, sk := t.fold()
	return time.Duration(sk.Quantile(q) * float64(time.Second))
}

// Merge folds other into t (cluster roll-ups of per-host timings).
func (t *Timing) Merge(other *Timing) error {
	if other == nil || t == other {
		return nil
	}
	oacc, osketch := other.fold()
	if oacc.n == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 || oacc.min < t.min {
		t.min = oacc.min
	}
	if t.n == 0 || oacc.max > t.max {
		t.max = oacc.max
	}
	t.n += oacc.n
	t.sum += oacc.sum
	return t.sketch.Merge(osketch)
}

// summary renders the timing's merged state.
func (t *Timing) summary() TimingSummary {
	acc, sk := t.fold()
	s := TimingSummary{N: acc.n, Sum: acc.sum, Min: acc.min, Max: acc.max}
	if acc.n > 0 {
		s.P50 = time.Duration(sk.Quantile(0.50) * float64(time.Second))
		s.P95 = time.Duration(sk.Quantile(0.95) * float64(time.Second))
		s.P99 = time.Duration(sk.Quantile(0.99) * float64(time.Second))
	}
	return s
}

// TimingSummary is one timing's rendered state.
type TimingSummary struct {
	N             uint64        `json:"n"`
	Sum           time.Duration `json:"sum_ns"`
	Min           time.Duration `json:"min_ns"`
	Max           time.Duration `json:"max_ns"`
	P50, P95, P99 time.Duration `json:"-"`
}

// Registry holds named instruments. Get-or-create accessors are guarded by
// a mutex; hot paths should look an instrument up once and keep the pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
	buckets  TimingBuckets

	// emit, when set, receives one trace event per finished span —
	// the hook that layers spans onto internal/trace.
	emit func(at time.Duration, kind, detail string)
}

// New returns an empty registry using DefaultTimingBuckets.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
		buckets:  DefaultTimingBuckets,
	}
}

// SetTrace installs (or with nil removes) the trace sink that finished
// spans report to. See internal/trace.Log.Func for a ready-made sink.
func (r *Registry) SetTrace(fn func(at time.Duration, kind, detail string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emit = fn
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing, creating it if needed.
func (r *Registry) Timing(name string) *Timing {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timings[name]
	if !ok {
		t = newTiming(r.buckets)
		r.timings[name] = t
	}
	return t
}

// Snapshot captures every instrument's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	snap := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]GaugeValue, len(r.gauges)),
		Timings:  make(map[string]TimingSummary, len(r.timings)),
	}
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timings := make(map[string]*Timing, len(r.timings))
	for k, v := range r.timings {
		timings[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = GaugeValue{Value: v.Value(), Max: v.Max()}
	}
	for k, v := range timings {
		snap.Timings[k] = v.summary()
	}
	return snap
}

// GaugeValue is one gauge's rendered state.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of a registry, safe to render or
// serialize after the run continues.
type Snapshot struct {
	Counters map[string]int64         `json:"counters"`
	Gauges   map[string]GaugeValue    `json:"gauges"`
	Timings  map[string]TimingSummary `json:"timings"`
}

// Text renders the snapshot as sorted "name value" lines — the format
// spritesim -metrics prints and the determinism goldens compare.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&b, "counter %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedNames(s.Gauges) {
		g := s.Gauges[name]
		fmt.Fprintf(&b, "gauge   %-40s %d (max %d)\n", name, g.Value, g.Max)
	}
	for _, name := range sortedNames(s.Timings) {
		t := s.Timings[name]
		fmt.Fprintf(&b, "timing  %-40s n=%d sum=%v min=%v max=%v p50=%v p95=%v p99=%v\n",
			name, t.N, t.Sum, t.Min, t.Max, t.P50, t.P95, t.P99)
	}
	return b.String()
}

// JSON renders the snapshot as deterministic (sorted-key) JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ") // encoding/json sorts map keys
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
