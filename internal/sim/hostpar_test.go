package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The kernel runs each activity on its own goroutine but hands control
// between them one at a time, so a run must not depend on how many OS
// threads the Go runtime has or on other simulations running in the same
// process. The tests here run one program serially (GOMAXPROCS=1, one
// simulation) and again with several simulations at once on more threads,
// and compare everything observable.

type kernelFP struct {
	digest uint64
	stats  Stats
	log    string
	errs   string
	now    time.Duration
	runErr string
}

func (fp kernelFP) String() string {
	return fmt.Sprintf("digest=%016x stats=%+v now=%v runErr=%q\nerrs=%q\nlog=%q",
		fp.digest, fp.stats, fp.now, fp.runErr, fp.errs, fp.log)
}

type progCfg struct {
	seed    int64
	groups  int
	daemons int // daemons per group
	limit   time.Duration
}

// runProg runs a workload exercising the kernel's primitives: Rand-paced
// sleeps, spawned children joined through a Future, Queue and Resource
// handoffs within a group, and sends into a supervisor queue that a
// periodic ticker interleaves with.
func runProg(cfg progCfg) kernelFP {
	s := New(cfg.seed)
	var logB strings.Builder
	inbox := NewQueue(s)
	s.Spawn("supervisor", func(env *Env) error {
		for {
			v, err := inbox.Recv(env)
			if err != nil {
				return nil
			}
			fmt.Fprintf(&logB, "inbox %v\n", v)
		}
	})
	s.Spawn("ticker", func(env *Env) error {
		for i := 0; i < 20; i++ {
			if err := env.Sleep(7 * time.Millisecond); err != nil {
				return nil
			}
			fmt.Fprintf(&logB, "tick %d at %v\n", i, env.Now())
		}
		return nil
	})
	for g := 0; g < cfg.groups; g++ {
		q := NewQueue(s)
		res := NewResource(s, 1)
		for d := 0; d < cfg.daemons; d++ {
			s.Spawn(fmt.Sprintf("daemon-%d-%d", g, d), func(env *Env) error {
				r := env.Rand()
				for step := 0; ; step++ {
					if err := env.Sleep(time.Duration(r.Intn(2000)+1) * time.Microsecond); err != nil {
						return nil
					}
					switch r.Intn(6) {
					case 0:
						fmt.Fprintf(&logB, "%s step=%d\n", env.Name(), step)
					case 1:
						q.Send(fmt.Sprintf("%s-%d", env.Name(), step))
					case 2:
						if q.Len() > 0 {
							v, err := q.Recv(env)
							if err != nil {
								return nil
							}
							fmt.Fprintf(&logB, "%s recv %v\n", env.Name(), v)
						}
					case 3:
						if err := res.Use(env, time.Duration(r.Intn(500))*time.Microsecond); err != nil {
							return nil
						}
					case 4:
						inbox.Send(fmt.Sprintf("%s@%d", env.Name(), env.Now()/time.Microsecond))
					case 5:
						f := NewFuture(s)
						env.Spawn(fmt.Sprintf("%s-child-%d", env.Name(), step), func(c *Env) error {
							if err := c.Sleep(time.Duration(c.Rand().Intn(300)) * time.Microsecond); err != nil {
								return err
							}
							f.Complete(step, nil)
							return nil
						})
						if _, err := f.Wait(env); err != nil {
							return nil
						}
					}
				}
			})
		}
	}
	err := s.Run(cfg.limit)
	fp := kernelFP{digest: s.OrderDigest(), stats: s.Stats(), now: s.Now()}
	if err != nil {
		fp.runErr = err.Error()
	}
	// Drain so every activity goroutine exits before the next run.
	s.Stop()
	_ = s.Run(0)
	fp.log = logB.String()
	if s.LiveActivities() != 0 {
		fp.errs = fmt.Sprintf("leaked %d activities", s.LiveActivities())
	}
	return fp
}

// runConcurrent sets GOMAXPROCS to workers and runs workers copies of the
// program at once, returning every copy's fingerprint.
func runConcurrent(cfg progCfg, workers int) []kernelFP {
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	out := make([]kernelFP, workers)
	var wg sync.WaitGroup
	for k := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k] = runProg(cfg)
		}()
	}
	wg.Wait()
	return out
}

func TestParallelMatchesSerialAcrossWorkerCounts(t *testing.T) {
	cfg := progCfg{seed: 42, groups: 7, daemons: 3, limit: 120 * time.Millisecond}
	want := runConcurrent(cfg, 1)[0] // serial oracle
	if want.runErr != "" {
		t.Fatalf("serial run failed: %v", want.runErr)
	}
	if want.stats.EventsDispatched == 0 || !strings.Contains(want.log, "inbox") {
		t.Fatalf("oracle did no work: %v", want)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for k, got := range runConcurrent(cfg, workers) {
			if got != want {
				t.Errorf("workers=%d copy %d diverged from serial:\n got: %v\nwant: %v", workers, k, got, want)
			}
		}
	}
}

func TestParallelEquivalenceProperty(t *testing.T) {
	// Quick-style sweep: many seeds and shapes, each compared across
	// thread counts. Shapes are derived from the seed so the corpus drifts
	// as seeds grow.
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		cfg := progCfg{
			seed:    int64(1000 + i*7919),
			groups:  1 + i%9,
			daemons: 1 + i%4,
			limit:   time.Duration(20+i%40) * time.Millisecond,
		}
		want := runConcurrent(cfg, 1)[0]
		for _, workers := range []int{2, 4} {
			for k, got := range runConcurrent(cfg, workers) {
				if got != want {
					t.Fatalf("seed=%d groups=%d daemons=%d workers=%d copy %d diverged:\n got: %v\nwant: %v",
						cfg.seed, cfg.groups, cfg.daemons, workers, k, got, want)
				}
			}
		}
	}
}
