package metrics

import (
	"sync"
	"testing"
	"time"
)

// The tests in this file split one stream of observations across
// concurrent writer goroutines and check that the result is exact:
// concurrent writes through cached instrument pointers must render the
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

// TestShardedTimingExact proves a timing fed by concurrent writers —
// count, sum, extrema, and every sketch-derived quantile — is
// byte-identical to a serial timing fed the same observations, for any
// round-robin split across writers. The comparison is on Snapshot.Text,
// the exact bytes the determinism goldens diff.
func TestShardedTimingExact(t *testing.T) {
	durations := shardDurations(5_000)
	serial := New()
	st := serial.Timing("lat")
	for _, d := range durations {
		st.Observe(d)
	}
	want := serial.Snapshot().Text()
	for _, slots := range []int{1, 2, 4, 8} {
		sharded := New()
		pt := sharded.Timing("lat")
		var wg sync.WaitGroup
		for s := 0; s < slots; s++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for i := slot; i < len(durations); i += slots {
					pt.Observe(durations[i])
				}
			}(s)
		}
		wg.Wait()
		if got := sharded.Snapshot().Text(); got != want {
			t.Fatalf("slots=%d snapshot diverged:\n got: %s\nwant: %s", slots, got, want)
		}
	}
}

// TestShardedSpanTiling checks the invariant the migration spans rely on:
// when per-phase durations tile a total (total = sum of phases), the
// timings preserve it exactly — Sum over the phase timings equals Sum over
// the total timing even when phases are recorded by different writer
// goroutines than their totals.
func TestShardedSpanTiling(t *testing.T) {
	const slots, migrations = 4, 500
	names := []string{"phase.freeze", "phase.transfer", "phase.resume"}
	type span struct {
		name       string
		start, end time.Duration
	}
	writers := make([][]span, slots)
	var wantTotal time.Duration
	for i := 0; i < migrations; i++ {
		start := time.Duration(i) * time.Second
		now := start
		for j, name := range names {
			end := now + time.Duration((i*7+j*3)%977)*time.Microsecond
			writers[(i+j)%slots] = append(writers[(i+j)%slots], span{name, now, end})
			now = end
		}
		writers[i%slots] = append(writers[i%slots], span{"total", start, now})
		wantTotal += now - start
	}
	r := New()
	var wg sync.WaitGroup
	for _, spans := range writers {
		wg.Add(1)
		go func(spans []span) {
			defer wg.Done()
			for _, sp := range spans {
				r.StartSpan(sp.name, sp.start).End(sp.end)
			}
		}(spans)
	}
	wg.Wait()
	var phaseSum time.Duration
	for _, name := range names {
		phaseSum += r.Timing(name).summary().Sum
	}
	total := r.Timing("total").summary()
	if phaseSum != wantTotal || total.Sum != wantTotal {
		t.Fatalf("span tiling broken: phases=%v total=%v want=%v", phaseSum, total.Sum, wantTotal)
	}
	if total.N != migrations {
		t.Fatalf("total n=%d want %d", total.N, migrations)
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
	if got := tm.summary().N; got != slots*per {
		t.Fatalf("lost updates: timing n = %d, want %d", got, slots*per)
	}
}
