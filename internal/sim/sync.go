package sim

import (
	"time"
)

// Future is a single-assignment value that activities can wait on. It is the
// basic building block for request/response interactions (RPC replies,
// process exit status, migration completion, ...).
type Future struct {
	sim     *Simulation
	done    bool
	value   any
	err     error
	waiters []*Env
}

// NewFuture returns an unresolved future bound to the simulation.
func NewFuture(s *Simulation) *Future {
	return &Future{sim: s}
}

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Complete resolves the future, waking every waiter at the current virtual
// time. Completing an already-complete future is a no-op.
func (f *Future) Complete(value any, err error) {
	if f.done {
		return
	}
	f.done = true
	f.value = value
	f.err = err
	for _, w := range f.waiters {
		w.wakeNow(nil)
	}
	f.waiters = nil
}

// Wait blocks the calling activity until the future completes, then returns
// its value and error. If the simulation stops first, it returns ErrStopped.
func (f *Future) Wait(env *Env) (any, error) {
	if !f.done {
		f.waiters = append(f.waiters, env)
		if werr := env.block(); werr != nil {
			f.dropWaiter(env)
			return nil, werr
		}
	}
	return f.value, f.err
}

// WaitTimeout is Wait with a deadline; it returns ErrTimeout if the future is
// still unresolved after d.
func (f *Future) WaitTimeout(env *Env, d time.Duration) (any, error) {
	if f.done {
		return f.value, f.err
	}
	f.waiters = append(f.waiters, env)
	env.act.wake = env.scheduleWake(d)
	// If the timer fires, block returns nil but the future is unresolved.
	if werr := env.block(); werr != nil {
		f.dropWaiter(env)
		return nil, werr
	}
	if !f.done {
		f.dropWaiter(env)
		return nil, ErrTimeout
	}
	return f.value, f.err
}

func (f *Future) dropWaiter(env *Env) {
	for i, w := range f.waiters {
		if w == env {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}

// Queue is an unbounded FIFO queue with blocking receive. Senders never
// block. It is the mailbox primitive used by server activities.
type Queue struct {
	sim     *Simulation
	items   []any
	waiters []*Env
	closed  bool
}

// NewQueue returns an empty queue bound to the simulation.
func NewQueue(s *Simulation) *Queue {
	return &Queue{sim: s}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Send enqueues v, waking the oldest waiter if any. Send on a closed queue is
// a silent no-op (the receiver has gone away). A waiter already woken with an
// error cannot consume the item, so the wakeup passes to the next one.
func (q *Queue) Send(v any) {
	if q.closed {
		return
	}
	q.items = append(q.items, v)
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.act.woken {
			continue
		}
		w.wakeNow(nil)
		return
	}
}

// Close wakes all waiters with ErrStopped and discards future sends.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		w.wakeNow(ErrStopped)
	}
	q.waiters = nil
}

// Recv blocks until an item is available and returns it. It returns
// ErrStopped if the queue is closed or the simulation stops.
func (q *Queue) Recv(env *Env) (any, error) {
	for len(q.items) == 0 {
		if q.closed {
			return nil, ErrStopped
		}
		q.waiters = append(q.waiters, env)
		if werr := env.block(); werr != nil {
			q.dropWaiter(env)
			return nil, werr
		}
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, nil
}

func (q *Queue) dropWaiter(env *Env) {
	for i, w := range q.waiters {
		if w == env {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Resource is a FIFO semaphore with a fixed number of slots. It models
// contended serial resources: a file server's CPU, the shared Ethernet
// medium, a disk arm.
type Resource struct {
	sim     *Simulation
	slots   int
	inUse   int
	waiters []*Env

	// stats
	busy      time.Duration
	lastStart time.Duration
	acquired  uint64
	waited    time.Duration
}

// NewResource returns a resource with the given number of slots (minimum 1).
func NewResource(s *Simulation, slots int) *Resource {
	if slots < 1 {
		slots = 1
	}
	return &Resource{sim: s, slots: slots}
}

// Acquire blocks until a slot is free, then claims it. Waiters are served
// strictly FIFO: Release hands its slot directly to the oldest waiter, so a
// loop of Acquire/Release cannot starve other acquirers (this is what gives
// CPU.Compute its round-robin behaviour).
func (r *Resource) Acquire(env *Env) error {
	start := env.Now()
	if r.inUse < r.slots && len(r.waiters) == 0 {
		if r.inUse == 0 {
			r.lastStart = start
		}
		r.inUse++
		r.acquired++
		return nil
	}
	r.waiters = append(r.waiters, env)
	if werr := env.block(); werr != nil {
		r.dropWaiter(env)
		return werr
	}
	// A nil wake means Release transferred its slot to us: inUse was left
	// unchanged on our behalf.
	r.acquired++
	r.waited += env.Now() - start
	return nil
}

// Release frees a slot. If anyone is waiting, the slot is transferred to the
// oldest waiter rather than returned to the pool. A waiter that has already
// been woken with an error (interrupted by fault injection, say) cannot take
// the slot — its Acquire will return that error without claiming anything —
// so it is skipped, not handed a slot it would leak.
func (r *Resource) Release() {
	if r.inUse == 0 {
		return
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if w.act.woken {
			continue
		}
		w.wakeNow(nil) // slot ownership transfers; inUse stays the same
		return
	}
	r.inUse--
	if r.inUse == 0 {
		r.busy += r.sim.now - r.lastStart
	}
}

// Use acquires the resource, holds it for d of virtual time, and releases it.
// This is the common charge-a-cost-to-a-resource idiom.
func (r *Resource) Use(env *Env, d time.Duration) error {
	if err := r.Acquire(env); err != nil {
		return err
	}
	err := env.Sleep(d)
	r.Release()
	return err
}

// BusyTime returns the total virtual time during which at least one slot was
// held.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// WaitTime returns the cumulative virtual time acquirers spent queued.
func (r *Resource) WaitTime() time.Duration { return r.waited }

// Acquired returns the number of successful acquisitions.
func (r *Resource) Acquired() uint64 { return r.acquired }

func (r *Resource) dropWaiter(env *Env) {
	for i, w := range r.waiters {
		if w == env {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			return
		}
	}
}

// WaitGroup counts outstanding activities and lets one or more activities
// wait for the count to reach zero.
type WaitGroup struct {
	sim     *Simulation
	count   int
	waiters []*Env
}

// NewWaitGroup returns a wait group bound to the simulation.
func NewWaitGroup(s *Simulation) *WaitGroup {
	return &WaitGroup{sim: s}
}

// Add increments the counter by n (n may be negative; Done is Add(-1)).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count <= 0 {
		for _, e := range w.waiters {
			e.wakeNow(nil)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(env *Env) error {
	for w.count > 0 {
		w.waiters = append(w.waiters, env)
		if werr := env.block(); werr != nil {
			w.dropWaiter(env)
			return werr
		}
	}
	return nil
}

func (w *WaitGroup) dropWaiter(env *Env) {
	for i, e := range w.waiters {
		if e == env {
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			return
		}
	}
}

// Cond is a broadcast-only condition variable: waiters block until the next
// Broadcast.
type Cond struct {
	sim     *Simulation
	waiters []*Env
}

// NewCond returns a condition variable bound to the simulation.
func NewCond(s *Simulation) *Cond {
	return &Cond{sim: s}
}

// Wait blocks the activity until the next Broadcast.
func (c *Cond) Wait(env *Env) error {
	c.waiters = append(c.waiters, env)
	if werr := env.block(); werr != nil {
		c.dropWaiter(env)
		return werr
	}
	return nil
}

func (c *Cond) dropWaiter(env *Env) {
	for i, e := range c.waiters {
		if e == env {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wakeNow(nil)
	}
	c.waiters = nil
}
