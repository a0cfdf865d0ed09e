package sim

import (
	"time"
)

// CPU models a single processor shared by many activities. Compute requests
// are served in round-robin quanta through a FIFO resource, which
// approximates the processor sharing of a timesharing kernel: with n
// runnable processes, each makes progress at roughly 1/n of real speed.
//
// The CPU also maintains the exponentially-weighted load average that
// Sprite's load daemon samples for idle-host detection.
type CPU struct {
	res      *Resource
	quantum  time.Duration
	runnable int

	// Load average state (UNIX-style 1-minute EWMA, sampled on demand).
	loadAvg    float64
	lastSample time.Duration
	halfLife   time.Duration

	// Utilization accounting.
	busyStart time.Duration
	busyTotal time.Duration
}

// NewCPU returns a single-slot CPU with the given scheduling quantum
// (defaults to 20ms if quantum <= 0).
func NewCPU(s *Simulation, quantum time.Duration) *CPU {
	if quantum <= 0 {
		quantum = 20 * time.Millisecond
	}
	return &CPU{
		res:      NewResource(s, 1),
		quantum:  quantum,
		halfLife: 30 * time.Second,
	}
}

// Compute consumes total of CPU time, sharing the processor with other
// running activities quantum by quantum.
func (c *CPU) Compute(env *Env, total time.Duration) error {
	if total <= 0 {
		return nil
	}
	c.enterRunnable(env)
	defer c.exitRunnable(env)
	remaining := total
	for remaining > 0 {
		slice := c.quantum
		if remaining < slice {
			slice = remaining
		}
		if err := c.res.Acquire(env); err != nil {
			return err
		}
		err := env.Sleep(slice)
		c.res.Release()
		if err != nil {
			return err
		}
		remaining -= slice
	}
	return nil
}

func (c *CPU) enterRunnable(env *Env) {
	c.sample(env.Now())
	c.runnable++
	if c.runnable == 1 {
		c.busyStart = env.Now()
	}
}

func (c *CPU) exitRunnable(env *Env) {
	c.sample(env.Now())
	c.runnable--
	if c.runnable == 0 {
		c.busyTotal += env.Now() - c.busyStart
	}
}

// sample folds the elapsed interval into the EWMA load average.
func (c *CPU) sample(now time.Duration) {
	dt := now - c.lastSample
	if dt <= 0 {
		return
	}
	c.lastSample = now
	// decay factor for an EWMA with the configured half-life
	alpha := 1.0
	if c.halfLife > 0 {
		alpha = float64(dt) / float64(c.halfLife)
		if alpha > 1 {
			alpha = 1
		}
	}
	c.loadAvg += alpha * (float64(c.runnable) - c.loadAvg)
}

// LoadAverage returns the smoothed count of runnable processes as of now.
func (c *CPU) LoadAverage(now time.Duration) float64 {
	c.sample(now)
	return c.loadAvg
}

// Runnable returns the instantaneous number of runnable processes.
func (c *CPU) Runnable() int { return c.runnable }

// BusyTime returns the cumulative virtual time during which the CPU had at
// least one runnable process, as of now.
func (c *CPU) BusyTime(now time.Duration) time.Duration {
	t := c.busyTotal
	if c.runnable > 0 {
		t += now - c.busyStart
	}
	return t
}

// SetHalfLife adjusts the load-average smoothing constant.
func (c *CPU) SetHalfLife(d time.Duration) { c.halfLife = d }
