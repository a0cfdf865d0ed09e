// Package sim provides a deterministic discrete-event simulator whose
// activities are ordinary goroutines.
//
// Exactly one activity runs at any instant. An activity blocks only through the primitives on its Env (Sleep, Future.Wait,
// Queue.Recv, Resource.Acquire, ...); each of those hands control back to the
// scheduler, which resumes the activity with the earliest pending event.
// Events are ordered by (virtual time, sequence number), so a run is a pure
// function of the program and the seed: re-running a simulation reproduces it
// bit for bit.
//
// The package is the substrate for everything else in this repository: hosts,
// kernels, RPCs, and user processes in the Sprite reproduction are all sim
// activities.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Errors returned by simulation primitives.
var (
	// ErrStopped is returned by blocking primitives when the simulation is
	// shut down while the caller is waiting.
	ErrStopped = errors.New("sim: simulation stopped")
	// ErrTimeout is returned by the *Timeout variants of blocking primitives.
	ErrTimeout = errors.New("sim: wait timed out")
	// ErrDeadlock is returned by Run when activities remain blocked but no
	// events are pending.
	ErrDeadlock = errors.New("sim: deadlock: blocked activities with empty event queue")
)

// event is a scheduled wakeup of an activity or a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	act *activity // activity to resume (nil for fn-only events)
	fn  func()    // optional callback run in scheduler context
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// activityState tracks where an activity is in its lifecycle.
type activityState int

const (
	stateReady activityState = iota + 1
	stateRunning
	stateBlocked
	stateDone
)

// activity is one simulated thread of control.
type activity struct {
	id     uint64
	name   string
	state  activityState
	resume chan struct{} // scheduler -> activity handoff
	yield  chan struct{} // activity -> scheduler handoff
	env    *Env
	wake   *event // pending timer event, cancelled on early wake
	woken  bool   // a wake event is already queued for this block
	err    error  // set if the activity's function returned an error
	reaped bool   // completion bookkeeping already performed
}

// Stats counts scheduler work: how many events the loop dispatched, how
// many activity context switches it performed, the deepest the event queue
// ever got, and how many activities were spawned. The counters never affect
// virtual time, and are identical across runs of the same program and seed.
type Stats struct {
	EventsDispatched uint64
	ContextSwitches  uint64
	MaxQueueDepth    int
	Spawned          uint64
}

// Simulation is a deterministic discrete-event simulator. The zero value is
// not usable; construct with New.
type Simulation struct {
	now     time.Duration
	queue   eventHeap
	free    []*event // recycled event structs, reused by schedule
	seq     uint64
	actSeq  uint64
	live    map[uint64]*activity
	stopped bool
	rng     *rand.Rand
	errs    []error
	stats   Stats
	digest  uint64
}

// Stats returns a copy of the scheduler's event-loop counters.
func (s *Simulation) Stats() Stats { return s.stats }

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters used by OrderDigest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New returns a simulation whose random stream is seeded with seed.
func New(seed int64) *Simulation {
	return &Simulation{
		live:   make(map[uint64]*activity),
		rng:    rand.New(rand.NewSource(seed)),
		digest: fnvOffset,
	}
}

// Now returns the current virtual time (elapsed since simulation start).
func (s *Simulation) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// OrderDigest returns an FNV-1a hash over the committed (time, sequence)
// event order so far. Two runs of the same program and seed produce the same
// digest; the rerun-determinism suite uses it as a cheap first-line
// comparison before diffing traces.
func (s *Simulation) OrderDigest() uint64 { return s.digest }

func (s *Simulation) noteCommit(at time.Duration, seq uint64) {
	h := s.digest
	x := uint64(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	x = seq
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	s.digest = h
}

// Spawn registers fn as a new activity that becomes runnable at the current
// virtual time. It may be called before Run or from within a running
// activity. The returned Env belongs to the new activity.
func (s *Simulation) Spawn(name string, fn func(env *Env) error) *Env {
	a := &activity{
		name:   name,
		state:  stateReady,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	a.env = &Env{sim: s, act: a}
	go func() {
		<-a.resume // wait for first scheduling
		err := safeRun(fn, a.env)
		a.err = err
		a.state = stateDone
		a.yield <- struct{}{}
	}()
	s.actSeq++
	a.id = s.actSeq
	s.live[a.id] = a
	s.stats.Spawned++
	s.schedule(s.now, a, nil)
	return a.env
}

// reap performs completion bookkeeping for a finished activity.
func (s *Simulation) reap(a *activity) {
	if a.reaped {
		return
	}
	a.reaped = true
	delete(s.live, a.id)
	// An activity that bails out with ErrStopped during shutdown is not
	// a failure; it is the expected way to unwind.
	if a.err != nil && !errors.Is(a.err, ErrStopped) {
		s.errs = append(s.errs, fmt.Errorf("activity %q: %w", a.name, a.err))
	}
}

func safeRun(fn func(env *Env) error, env *Env) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic value that is itself an error stays matchable through
			// errors.Is/As after it surfaces as the activity error.
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", perr)
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return fn(env)
}

// After schedules fn to run in scheduler context (not as an activity) after
// delay d. Use Spawn for anything that needs to block.
func (s *Simulation) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, nil, fn)
}

func (s *Simulation) schedule(at time.Duration, a *activity, fn func()) *event {
	s.seq++
	ev := s.newEvent(at, s.seq, a, fn)
	heap.Push(&s.queue, ev)
	if n := len(s.queue); n > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = n
	}
	return ev
}

// newEvent allocates an event, reusing the freelist when possible.
func (s *Simulation) newEvent(at time.Duration, seq uint64, a *activity, fn func()) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*ev = event{at: at, seq: seq, act: a, fn: fn}
	} else {
		ev = &event{at: at, seq: seq, act: a, fn: fn}
	}
	return ev
}

// release recycles a popped event. Callers must have copied the fields they
// need first: the struct may be handed out again by the very next schedule.
// Safe because the only long-lived pointer into the queue — activity.wake —
// is cleared before the event is released (cancelled timers are cleared by
// wakeNow, fired timers by dispatch).
func (s *Simulation) release(ev *event) {
	*ev = event{}
	s.free = append(s.free, ev)
}

// Run executes events until the queue is empty, until time limit is reached
// (limit <= 0 means no limit), or until Stop is called. It returns the first
// error of: an activity error, a detected deadlock, or nil.
func (s *Simulation) Run(limit time.Duration) error {
	s.loop(limit)
	if s.stopped {
		s.drain()
	}
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	if !s.stopped && (limit <= 0 || s.now < limit) && len(s.live) > 0 {
		names := make([]string, 0, len(s.live))
		for _, a := range s.live {
			names = append(names, a.name)
		}
		sort.Strings(names)
		return fmt.Errorf("%w: %v", ErrDeadlock, names)
	}
	return nil
}

// loop dispatches events one at a time in (time, sequence) order.
func (s *Simulation) loop(limit time.Duration) {
	for len(s.queue) > 0 && !s.stopped {
		ev := heap.Pop(&s.queue).(*event)
		at, seq, act, fn := ev.at, ev.seq, ev.act, ev.fn
		s.release(ev)
		if act == nil && fn == nil {
			continue // cancelled timer
		}
		if limit > 0 && at > limit {
			s.now = limit
			break
		}
		if at > s.now {
			s.now = at
		}
		s.stats.EventsDispatched++
		s.noteCommit(at, seq)
		if fn != nil {
			fn()
		}
		if act != nil {
			s.dispatch(act)
		}
	}
}

// dispatch resumes activity a and waits for it to block or finish.
func (s *Simulation) dispatch(a *activity) {
	if a.state == stateDone {
		return
	}
	s.stats.ContextSwitches++
	a.wake = nil
	a.state = stateRunning
	a.resume <- struct{}{}
	<-a.yield
	if a.state == stateDone {
		s.reap(a)
	}
}

// Stop aborts the simulation: all blocked activities are woken with
// ErrStopped so their goroutines exit, and Run returns.
func (s *Simulation) Stop() { s.stopped = true }

// drain wakes every remaining blocked activity with ErrStopped so that no
// goroutines are leaked after Run returns.
func (s *Simulation) drain() {
	// Wake the blocked activities in id order. Dispatching one can unblock
	// or spawn others, so sweep over a snapshot sorted once per pass and
	// repeat until a whole pass wakes nobody — instead of re-scanning the
	// live set for the minimum id before every single dispatch.
	snap := make([]*activity, 0, len(s.live))
	for {
		snap = snap[:0]
		for _, a := range s.live {
			if a.state == stateBlocked {
				snap = append(snap, a)
			}
		}
		if len(snap) == 0 {
			break
		}
		sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
		for _, a := range snap {
			if a.state != stateBlocked {
				continue
			}
			a.env.wakeErr = ErrStopped
			s.dispatch(a)
		}
	}
	// Ready activities (spawned but never run) still hold queued events;
	// run them so their goroutines exit too.
	for len(s.queue) > 0 {
		ev := heap.Pop(&s.queue).(*event)
		act := ev.act
		s.release(ev)
		if act != nil && act.state != stateDone {
			act.env.wakeErr = ErrStopped
			s.dispatch(act)
		}
	}
}

// LiveActivities returns the number of activities that have been spawned but
// have not finished. It is mainly useful in tests for leak checking.
func (s *Simulation) LiveActivities() int { return len(s.live) }

// Env is an activity's handle onto the simulation. All blocking operations
// must go through an Env; an Env must only be used by the activity that owns
// it.
type Env struct {
	sim     *Simulation
	act     *activity
	wakeErr error // error to deliver at next wakeup (ErrStopped, ErrTimeout)
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.sim.now }

// Rand returns the simulation's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.sim.rng }

// Name returns the activity's name (useful in logs and errors).
func (e *Env) Name() string { return e.act.name }

// Spawn starts a new activity at the current virtual time.
func (e *Env) Spawn(name string, fn func(env *Env) error) *Env {
	return e.sim.Spawn(name, fn)
}

// block parks the activity until the scheduler resumes it, returning any
// wake error (ErrStopped or ErrTimeout) set by the waker.
func (e *Env) block() error {
	e.act.state = stateBlocked
	e.act.yield <- struct{}{}
	<-e.act.resume
	e.act.state = stateRunning
	e.act.woken = false
	err := e.wakeErr
	e.wakeErr = nil
	return err
}

// scheduleWake schedules a resume of this activity after d.
func (e *Env) scheduleWake(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	return e.sim.schedule(e.sim.now+d, e.act, nil)
}

// Sleep advances the activity's virtual time by d.
func (e *Env) Sleep(d time.Duration) error {
	e.act.wake = e.scheduleWake(d)
	return e.block()
}

// Yield reschedules the activity at the current time, letting any other
// activity scheduled for this instant run first.
func (e *Env) Yield() error { return e.Sleep(0) }

// wakeNow cancels a pending timer (if any) and schedules an immediate resume.
// Only the first wake of a given block takes effect: once a resume event is
// queued, further wakes are no-ops until the activity actually runs again
// (a second queued resume would later fire as a spurious wakeup while the
// activity is blocked on something else entirely).
func (e *Env) wakeNow(err error) {
	a := e.act
	if a.state != stateBlocked || a.woken {
		return
	}
	if a.wake != nil { // cancel pending timer
		a.wake.act = nil
		a.wake.fn = nil
		a.wake = nil
	}
	a.woken = true
	e.wakeErr = err
	e.sim.schedule(e.sim.now, a, nil)
}

// Interrupt poisons the activity that owns e with err: if it is blocked in
// any primitive, it is woken immediately and the primitive returns err; if it
// is ready or running, err is delivered the next time it blocks. Interrupt is
// the mechanism behind fail-stop fault injection (a crashed host's processes
// must unwind without running any more simulated work) and must be called
// from a different activity (or scheduler context), never on one's own Env.
func (e *Env) Interrupt(err error) {
	switch e.act.state {
	case stateBlocked:
		e.wakeNow(err)
	case stateDone:
		// Already finished; nothing to deliver.
	default:
		// Ready or running: poison the next block. A ready activity already
		// has a queued resume event, which will deliver this error.
		e.wakeErr = err
	}
}
