package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEventLoop measures the scheduler's hot path: many activities
// sleeping in lockstep, so every iteration exercises schedule, the event
// heap, and dispatch. The event freelist should keep steady-state event
// allocations near zero.
func BenchmarkEventLoop(b *testing.B) {
	const (
		workers = 8
		ticks   = 500
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for w := 0; w < workers; w++ {
			s.Spawn(fmt.Sprintf("w%d", w), func(env *Env) error {
				for k := 0; k < ticks; k++ {
					if err := env.Sleep(time.Microsecond); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventLoopDrain measures shutdown: a large population of blocked
// activities unwound by Stop. The drain path should be near-linear in the
// number of activities, not quadratic.
func BenchmarkEventLoopDrain(b *testing.B) {
	const workers = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for w := 0; w < workers; w++ {
			s.Spawn(fmt.Sprintf("w%d", w), func(env *Env) error {
				err := env.Sleep(time.Hour)
				return err
			})
		}
		s.After(time.Millisecond, s.Stop)
		if err := s.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}
