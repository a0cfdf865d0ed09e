package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The tests in this file split one stream of observations into shards —
// per-host timings, or concurrent writer goroutines — and check that the
// fold back is exact: the cluster roll-up of per-host timings (Timing.Merge)
// and concurrent writes through cached instrument pointers must render the
// same Snapshot.Text bytes as one serial instrument fed the whole stream.

// shardDurations is a fixed xorshift stream of durations below 50 ms.
func shardDurations(n int) []time.Duration {
	out := make([]time.Duration, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = time.Duration(x%50_000_000) * time.Nanosecond
	}
	return out
}

// TestShardedCounterExact proves a counter fed by concurrent writers lands
// exactly on the serial count: the same increment stream, dealt
// round-robin across writer goroutines, renders the same snapshot as a
// single writer (integer addition is commutative — no approximation).
func TestShardedCounterExact(t *testing.T) {
	const n = 10_000
	serial := New()
	sc := serial.Counter("m")
	for i := 0; i < n; i++ {
		sc.Add(int64(i % 7))
	}
	want := serial.Snapshot().Text()
	for _, slots := range []int{1, 2, 4, 8} {
		sharded := New()
		pc := sharded.Counter("m")
		var wg sync.WaitGroup
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for i := slot; i < n; i += slots {
					pc.Add(int64(i % 7))
				}
			}(s)
		}
		wg.Wait()
		if got := sharded.Snapshot().Text(); got != want {
			t.Fatalf("slots=%d counter diverged:\n got: %s\nwant: %s", slots, got, want)
		}
	}
}

// TestShardedTimingExact proves the roll-up of per-host timings — count,
// sum, extrema, and every sketch-derived quantile — is byte-identical to a
// serial timing fed the same observations, for any round-robin split
// across hosts. The comparison is on Snapshot.Text, the exact bytes the
// determinism goldens diff.
func TestShardedTimingExact(t *testing.T) {
	durations := shardDurations(5_000)
	serial := New()
	st := serial.Timing("lat")
	for _, d := range durations {
		st.Observe(d)
	}
	want := serial.Snapshot().Text()
	for _, slots := range []int{1, 2, 4, 8} {
		hosts := make([]*Timing, slots)
		for i := range hosts {
			hosts[i] = newTiming(DefaultTimingBuckets)
		}
		for i, d := range durations {
			hosts[i%slots].Observe(d)
		}
		cluster := New()
		ct := cluster.Timing("lat")
		for _, h := range hosts {
			if err := ct.Merge(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := cluster.Snapshot().Text(); got != want {
			t.Fatalf("slots=%d snapshot diverged:\n got: %s\nwant: %s", slots, got, want)
		}
	}
}

// TestShardedSpanTiling checks the invariant the migration spans rely on:
// when per-phase durations tile a total (total = sum of phases), the
// cluster roll-up preserves it exactly — Sum over the phase timings equals
// Sum over the total timing even when phases are recorded on different
// hosts than their totals.
func TestShardedSpanTiling(t *testing.T) {
	const slots, migrations = 4, 500
	names := []string{"phase.freeze", "phase.transfer", "phase.resume"}
	hosts := make([]*Registry, slots)
	for i := range hosts {
		hosts[i] = New()
	}
	var wantTotal time.Duration
	for i := 0; i < migrations; i++ {
		start := time.Duration(i) * time.Second
		now := start
		for j, name := range names {
			sp := hosts[(i+j)%slots].StartSpan(name, now)
			now += time.Duration((i*7+j*3)%977) * time.Microsecond
			sp.End(now)
		}
		hosts[i%slots].StartSpan("total", start).End(now)
		wantTotal += now - start
	}
	cluster := New()
	for _, h := range hosts {
		for _, name := range append([]string{"total"}, names...) {
			if err := cluster.Timing(name).Merge(h.Timing(name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var phaseSum time.Duration
	for _, name := range names {
		phaseSum += cluster.Timing(name).Sum()
	}
	total := cluster.Timing("total")
	if phaseSum != wantTotal || total.Sum() != wantTotal {
		t.Fatalf("span tiling broken: phases=%v total=%v want=%v", phaseSum, total.Sum(), wantTotal)
	}
	if total.N() != migrations {
		t.Fatalf("total n=%d want %d", total.N(), migrations)
	}
}

// TestShardedTimingMergeRollup proves cluster roll-ups do not depend on the
// order hosts are folded in: merging per-host timings forward, backward, or
// through an intermediate roll-up yields the same summary as merging one
// serial twin that saw every observation.
func TestShardedTimingMergeRollup(t *testing.T) {
	const slots = 4
	mk := func() (serial *Timing, hosts []*Timing) {
		serial = newTiming(DefaultTimingBuckets)
		hosts = make([]*Timing, slots)
		for i := range hosts {
			hosts[i] = newTiming(DefaultTimingBuckets)
		}
		for i := 0; i < 300; i++ {
			d := time.Duration(i%53) * 100 * time.Microsecond
			serial.Observe(d)
			hosts[i%slots].Observe(d)
		}
		return serial, hosts
	}
	render := func(tm *Timing) string {
		s := tm.summary()
		return fmt.Sprintf("%d %v %v %v %v %v %v", s.N, s.Sum, s.Min, s.Max, s.P50, s.P95, s.P99)
	}
	rollup := func(parts ...*Timing) string {
		cluster := newTiming(DefaultTimingBuckets)
		for _, p := range parts {
			if err := cluster.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return render(cluster)
	}
	serial, hosts := mk()
	want := rollup(serial)
	if got := rollup(hosts...); got != want {
		t.Fatalf("forward rollup diverged:\n got: %s\nwant: %s", got, want)
	}
	if got := rollup(hosts[3], hosts[2], hosts[1], hosts[0]); got != want {
		t.Fatalf("reverse rollup diverged:\n got: %s\nwant: %s", got, want)
	}
	left := newTiming(DefaultTimingBuckets)
	for _, h := range hosts[:2] {
		if err := left.Merge(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := rollup(left, hosts[2], hosts[3]); got != want {
		t.Fatalf("two-level rollup diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestShardedConcurrentWriters is the race-detector check of the shared
// cells: writer goroutines on one counter and one timing plus a concurrent
// snapshot reader, with no update lost.
func TestShardedConcurrentWriters(t *testing.T) {
	const slots, per = 8, 2_000
	r := New()
	c := r.Counter("hot")
	tm := r.Timing("hot")
	var wg sync.WaitGroup
	for s := 1; s <= slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				tm.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot().Text()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != slots*per {
		t.Fatalf("lost updates: counter = %d, want %d", got, slots*per)
	}
	if got := tm.N(); got != slots*per {
		t.Fatalf("lost updates: timing n = %d, want %d", got, slots*per)
	}
}
