// Package simclock provides the deterministic virtual time base used by
// every simulated device and by the cache hierarchy.
//
// All latencies in the reproduction are charged against a Clock rather than
// measured on the host, which makes every experiment reproducible
// bit-for-bit and independent of host noise. A Clock is a monotonically
// non-decreasing counter of simulated nanoseconds; devices advance it by the
// cost of each operation they service.
package simclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is a virtual clock measured in simulated nanoseconds.
//
// The zero value is a valid clock positioned at t=0. A Clock is safe for
// concurrent use; simulated components typically share one clock so that
// device latencies and think time accumulate on a single time line.
type Clock struct {
	mu        sync.Mutex
	now       time.Duration
	onAdvance func(Component, time.Duration)
}

// New returns a clock positioned at t=0.
func New() *Clock { return &Clock{} }

// Now returns the current simulated time since the start of the simulation.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// OnAdvance installs a hook invoked after every advance that actually moved
// time, with the component label and the delta. Because every path that
// moves simulated time funnels through here, an observer summing the deltas
// between two Now() reads reconstructs the elapsed interval exactly. Pass
// nil to remove the hook.
func (c *Clock) OnAdvance(fn func(Component, time.Duration)) {
	c.mu.Lock()
	c.onAdvance = fn
	c.mu.Unlock()
}

// AdvanceAttr moves simulated time forward by d, attributing the time to
// component comp, and returns the new time. It panics if d is negative:
// simulated time never runs backwards. There is no unlabeled advance, so
// every slice of simulated time is claimed by a component.
func (c *Clock) AdvanceAttr(d time.Duration, comp Component) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.mu.Lock()
	c.now += d
	now := c.now
	hook := c.onAdvance
	c.mu.Unlock()
	if hook != nil && d > 0 {
		hook(comp, d)
	}
	return now
}

// AdvanceToAttr moves simulated time forward to t if t is later than the
// current time, attributing the covered interval to component comp;
// otherwise it leaves the clock unchanged. It returns the resulting time.
// This is the idiom for components that compute an absolute completion time
// (for example a rotating disk whose platter position is periodic).
func (c *Clock) AdvanceToAttr(t time.Duration, comp Component) time.Duration {
	c.mu.Lock()
	d := t - c.now
	if d > 0 {
		c.now = t
	}
	now := c.now
	hook := c.onAdvance
	c.mu.Unlock()
	if hook != nil && d > 0 {
		hook(comp, d)
	}
	return now
}

// Reset rewinds the clock to t=0. It is intended for reusing simulation
// fixtures between experiment runs, never for mid-run time travel.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}

// Stopwatch measures a span of simulated time against a clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// StartStopwatch begins measuring simulated time on c.
func StartStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the simulated time since the stopwatch was started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }
