// Package metrics provides the counters, histograms, time series and
// tables used to report every experiment in the reproduction.
//
// The types here count simulated quantities (simulated nanoseconds, cache
// probes, device operations); nothing in this package touches wall-clock
// time. All types are safe for concurrent use unless stated otherwise.
package metrics

import "sync"

// Counter is a monotonically increasing event counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.mu.Lock()
	c.n = 0
	c.mu.Unlock()
}
