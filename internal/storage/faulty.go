package storage

// Fault injection for simulated devices.
//
// The cache hierarchy's error paths are unreachable while the simulated
// devices always succeed, which makes them untested dead code. FaultyDevice
// wraps any Device and injects the failure modes production SSDs exhibit —
// transient per-operation errors and sticky bad extents that fail every
// subsequent access — deterministically, from a simclock.RNG, so a faulted
// run replays bit-for-bit.
//
// Read, write and trim are configured independently (one error
// probability per class);
// a run with only write faults exercises flush paths without disturbing
// read-backs, and vice versa.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/simclock"
)

// ErrInjected marks a device error produced by fault injection, so callers
// and tests can distinguish injected faults from genuine range violations.
var ErrInjected = errors.New("storage: injected device fault")

// FaultSpec configures a FaultyDevice. The zero value injects nothing.
type FaultSpec struct {
	// Seed derives the injector's private RNG stream when no RNG is passed
	// to NewFaultyDevice, keeping faulted runs reproducible.
	Seed uint64
	// Read, Write and Trim are each operation class's per-operation
	// probability of failing with ErrInjected.
	Read, Write, Trim float64
	// StickyProb is the probability that an injected error additionally
	// marks the touched byte range as a sticky bad extent: every later
	// read or write overlapping it fails (trims still succeed — discarding
	// a dead block is always possible).
	StickyProb float64
}

// Enabled reports whether the spec injects any fault at all.
func (s FaultSpec) Enabled() bool {
	return s.Read > 0 || s.Write > 0 || s.Trim > 0
}

// FaultStats counts what the injector has done so far.
type FaultStats struct {
	ReadErrors  int64
	WriteErrors int64
	TrimErrors  int64
	// BadExtentHits counts operations failed because they overlapped a
	// sticky bad extent (also included in the per-class error counts).
	BadExtentHits int64
	// BadExtents is the size of the current sticky set.
	BadExtents int
}

// FaultyDevice wraps a Device, injecting deterministic faults per FaultSpec.
// It implements Trimmer whenever the wrapped device does; trims on a
// non-Trimmer inner device fail cleanly instead of panicking.
type FaultyDevice struct {
	mu    sync.Mutex
	inner Device
	spec  FaultSpec
	rng   *simclock.RNG
	bad   []extent // sticky bad ranges, unordered (small)
	stats FaultStats
}

// NewFaultyDevice wraps inner with the given fault spec. rng may be nil, in
// which case a private stream is derived from spec.Seed.
func NewFaultyDevice(inner Device, spec FaultSpec, rng *simclock.RNG) *FaultyDevice {
	if rng == nil {
		rng = simclock.NewRNG(spec.Seed ^ 0xfa017dead)
	}
	return &FaultyDevice{inner: inner, spec: spec, rng: rng}
}

// Name implements Device.
func (d *FaultyDevice) Name() string { return d.inner.Name() }

// Size implements Device.
func (d *FaultyDevice) Size() int64 { return d.inner.Size() }

// Inner returns the wrapped device.
func (d *FaultyDevice) Inner() Device { return d.inner }

// FaultStats returns a snapshot of the injector's counters.
func (d *FaultyDevice) FaultStats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// overlapsBadLocked reports whether [off,+n) touches a sticky bad extent.
// Caller holds d.mu.
func (d *FaultyDevice) overlapsBadLocked(off int64, n int) bool {
	end := off + int64(n)
	for _, e := range d.bad {
		if off < e.off+e.len && e.off < end {
			return true
		}
	}
	return false
}

// inject decides the fate of one in-range operation: it returns the error
// to inject, or nil. Counters are updated here.
func (d *FaultyDevice) inject(kind OpKind, prob float64, off int64, n int, errCount *int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kind != OpTrim && d.overlapsBadLocked(off, n) {
		*errCount++
		d.stats.BadExtentHits++
		return fmt.Errorf("%s: bad extent, %s [%d,+%d): %w", d.inner.Name(), kind, off, n, ErrInjected)
	}
	if prob > 0 && d.rng.Float64() < prob {
		*errCount++
		if d.spec.StickyProb > 0 && d.rng.Float64() < d.spec.StickyProb {
			d.bad = append(d.bad, extent{off, int64(n)})
			d.stats.BadExtents = len(d.bad)
		}
		return fmt.Errorf("%s: injected %s error at [%d,+%d): %w", d.inner.Name(), kind, off, n, ErrInjected)
	}
	return nil
}

// ReadAt implements Device. Range violations are reported before any
// injection, so they draw nothing from the injector's RNG; injected
// failures happen before the inner read and have no side effects.
func (d *FaultyDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	if err := CheckRange(d.inner.Name(), d.inner.Size(), off, len(p)); err != nil {
		return 0, err
	}
	if err := d.inject(OpRead, d.spec.Read, off, len(p), &d.stats.ReadErrors); err != nil {
		return 0, err
	}
	return d.inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (d *FaultyDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	if err := CheckRange(d.inner.Name(), d.inner.Size(), off, len(p)); err != nil {
		return 0, err
	}
	if err := d.inject(OpWrite, d.spec.Write, off, len(p), &d.stats.WriteErrors); err != nil {
		return 0, err
	}
	return d.inner.WriteAt(p, off)
}

// Trim implements Trimmer on top of a trim-capable inner device.
func (d *FaultyDevice) Trim(off, n int64) (time.Duration, error) {
	t, ok := d.inner.(Trimmer)
	if !ok {
		return 0, fmt.Errorf("%s: device does not support trim", d.inner.Name())
	}
	if err := CheckRange(d.inner.Name(), d.inner.Size(), off, int(n)); err != nil {
		return 0, err
	}
	if err := d.inject(OpTrim, d.spec.Trim, off, int(n), &d.stats.TrimErrors); err != nil {
		return 0, err
	}
	return t.Trim(off, n)
}
