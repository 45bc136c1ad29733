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
	"sync/atomic"
	"time"
)

// Clock is a virtual clock measured in simulated nanoseconds.
//
// The zero value is a valid clock positioned at t=0. A Clock is safe for
// concurrent use; simulated components typically share one clock so that
// device latencies and think time accumulate on a single time line. It takes
// no lock: the time is one atomic word, so every advance is a single atomic
// add and concurrent advances sum exactly, and the hook is one atomic
// pointer.
type Clock struct {
	now       atomic.Int64
	onAdvance atomic.Pointer[func(Component, time.Duration)]
}

// New returns a clock positioned at t=0.
func New() *Clock { return &Clock{} }

// Now returns the current simulated time since the start of the simulation.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// OnAdvance installs a hook invoked after every advance that actually moved
// time, with the component label and the delta. Because every path that
// moves simulated time funnels through here, an observer summing the deltas
// between two Now() reads reconstructs the elapsed interval exactly. Pass
// nil to remove the hook.
func (c *Clock) OnAdvance(fn func(Component, time.Duration)) {
	if fn == nil {
		c.onAdvance.Store(nil)
		return
	}
	c.onAdvance.Store(&fn)
}

// AdvanceAttr moves simulated time forward by d, attributing the time to
// component comp, and returns the new time. It panics if d is negative:
// simulated time never runs backwards. There is no unlabeled advance, so
// every slice of simulated time is claimed by a component.
func (c *Clock) AdvanceAttr(d time.Duration, comp Component) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	now := time.Duration(c.now.Add(int64(d)))
	if d > 0 {
		if hook := c.onAdvance.Load(); hook != nil {
			(*hook)(comp, d)
		}
	}
	return now
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
