package storage

import (
	"sync"
	"time"

	"hybridstore/internal/simclock"
)

// MemDevice models main memory as a storage device: uniform access latency
// plus bandwidth-proportional transfer time. It anchors the fast end of the
// hierarchy so that every level of the two-level cache charges simulated
// time through the same interface.
type MemDevice struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	buf   *SparseBuffer

	accessLatency time.Duration // fixed per-operation cost
	nsPerByte     float64       // transfer cost per byte in nanoseconds

	stats DeviceStats
	onOp  func(Op)
}

// MemParams configures a MemDevice.
type MemParams struct {
	// AccessLatency is the fixed cost per operation. Defaults to 100 ns.
	AccessLatency time.Duration
	// BytesPerSecond is the transfer bandwidth. Defaults to 10 GiB/s.
	BytesPerSecond int64
}

// DefaultMemParams returns DRAM-like timing.
func DefaultMemParams() MemParams {
	return MemParams{AccessLatency: 100 * time.Nanosecond, BytesPerSecond: 10 << 30}
}

// NewMemDevice builds a memory device of the given size sharing clock.
func NewMemDevice(name string, size int64, clock *simclock.Clock, p MemParams) *MemDevice {
	if p.AccessLatency == 0 {
		p.AccessLatency = 100 * time.Nanosecond
	}
	if p.BytesPerSecond == 0 {
		p.BytesPerSecond = 10 << 30
	}
	return &MemDevice{
		name:          name,
		clock:         clock,
		buf:           NewSparseBuffer(size),
		accessLatency: p.AccessLatency,
		nsPerByte:     float64(time.Second) / float64(p.BytesPerSecond),
	}
}

// Name implements Device.
func (d *MemDevice) Name() string { return d.name }

// Size implements Device.
func (d *MemDevice) Size() int64 { return d.buf.Size() }

// SetOpHook installs a callback invoked after every completed operation.
func (d *MemDevice) SetOpHook(fn func(Op)) {
	d.mu.Lock()
	d.onOp = fn
	d.mu.Unlock()
}

func (d *MemDevice) cost(n int) time.Duration {
	return d.accessLatency + time.Duration(float64(n)*d.nsPerByte)
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := CheckRange(d.name, d.buf.Size(), off, len(p)); err != nil {
		return 0, err
	}
	d.buf.ReadAt(p, off)
	lat := d.cost(len(p))
	d.clock.AdvanceAttr(lat, simclock.CompOther)
	d.stats.Record(OpRead, len(p), lat)
	d.emit(Op{Device: d.name, Kind: OpRead, Offset: off, Len: len(p), Latency: lat})
	return lat, nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := CheckRange(d.name, d.buf.Size(), off, len(p)); err != nil {
		return 0, err
	}
	d.buf.WriteAt(p, off)
	lat := d.cost(len(p))
	d.clock.AdvanceAttr(lat, simclock.CompOther)
	d.stats.Record(OpWrite, len(p), lat)
	d.emit(Op{Device: d.name, Kind: OpWrite, Offset: off, Len: len(p), Latency: lat})
	return lat, nil
}

func (d *MemDevice) emit(op Op) {
	if d.onOp != nil {
		d.onOp(op)
	}
}

// Stats returns a snapshot of the device's operation counters.
func (d *MemDevice) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// DeviceStats aggregates per-device operation counts, bytes and time.
type DeviceStats struct {
	Reads      int64
	Writes     int64
	Trims      int64
	Erases     int64
	BytesRead  int64
	BytesWrit  int64
	ReadTime   time.Duration
	WriteTime  time.Duration
	TrimTime   time.Duration
	EraseTime  time.Duration
	TotalTime  time.Duration
	Operations int64
}

// Record accounts one completed operation of the given kind, payload size
// and latency. Device implementations call it under their own lock.
func (s *DeviceStats) Record(kind OpKind, n int, lat time.Duration) {
	s.Operations++
	s.TotalTime += lat
	switch kind {
	case OpRead:
		s.Reads++
		s.BytesRead += int64(n)
		s.ReadTime += lat
	case OpWrite:
		s.Writes++
		s.BytesWrit += int64(n)
		s.WriteTime += lat
	case OpTrim:
		s.Trims++
		s.TrimTime += lat
	case OpErase:
		s.Erases++
		s.EraseTime += lat
	}
}

// AvgAccessTime returns mean time per operation, or 0 with no operations.
func (s DeviceStats) AvgAccessTime() time.Duration {
	if s.Operations == 0 {
		return 0
	}
	return s.TotalTime / time.Duration(s.Operations)
}
