// Package disksim models a mechanical hard disk drive.
//
// The model captures the three HDD properties the paper's evaluation rests
// on: random accesses pay a seek whose cost grows with head travel distance,
// every non-sequential access pays rotational latency, and sequential runs
// stream at the media transfer rate. Timing parameters default to a
// 7200 RPM desktop drive comparable to the WDC WD3200AAJS used in the paper
// (Table II).
//
// Like every device in the reproduction, an HDD stores real bytes and
// charges simulated time on a shared clock.
package disksim

import (
	"math"
	"sync"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// Params configures the drive's timing model.
type Params struct {
	// Capacity is the drive size in bytes.
	Capacity int64
	// RPM is the spindle speed; rotational latency is half a revolution.
	RPM int
	// TrackToTrackSeek is the minimum seek (adjacent track).
	TrackToTrackSeek time.Duration
	// FullStrokeSeek is the maximum seek (across the whole platter).
	FullStrokeSeek time.Duration
	// BytesPerSecond is the sustained media transfer rate.
	BytesPerSecond int64
	// CommandOverhead is fixed controller/processing time per request.
	CommandOverhead time.Duration
}

// DefaultParams returns WD3200AAJS-like timing: 7200 RPM, ~0.8 ms
// track-to-track, ~17 ms full stroke (≈8.9 ms average seek), 90 MB/s.
func DefaultParams(capacity int64) Params {
	return Params{
		Capacity:         capacity,
		RPM:              7200,
		TrackToTrackSeek: 800 * time.Microsecond,
		FullStrokeSeek:   17 * time.Millisecond,
		BytesPerSecond:   90 << 20,
		CommandOverhead:  100 * time.Microsecond,
	}
}

// HDD is a simulated hard disk drive implementing storage.Device.
type HDD struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	buf   *storage.SparseBuffer
	p     Params

	headPos   int64 // byte offset the head is positioned after the last op
	nextSeq   int64 // offset that would continue the current sequential run
	halfRot   time.Duration
	nsPerByte float64

	stats   storage.DeviceStats
	seqHits int64 // requests serviced without a seek
	onOp    func(storage.Op)
}

// New builds a drive with the given parameters on the shared clock.
func New(name string, clock *simclock.Clock, p Params) *HDD {
	if p.Capacity <= 0 {
		panic("disksim: non-positive capacity")
	}
	if p.RPM <= 0 {
		p.RPM = 7200
	}
	if p.BytesPerSecond <= 0 {
		p.BytesPerSecond = 90 << 20
	}
	if p.FullStrokeSeek == 0 {
		p.FullStrokeSeek = 17 * time.Millisecond
	}
	if p.TrackToTrackSeek == 0 {
		p.TrackToTrackSeek = 800 * time.Microsecond
	}
	rotation := time.Duration(float64(time.Minute) / float64(p.RPM))
	return &HDD{
		name:      name,
		clock:     clock,
		buf:       storage.NewSparseBuffer(p.Capacity),
		p:         p,
		nextSeq:   -1,
		halfRot:   rotation / 2,
		nsPerByte: float64(time.Second) / float64(p.BytesPerSecond),
	}
}

// Name implements storage.Device.
func (d *HDD) Name() string { return d.name }

// Size implements storage.Device.
func (d *HDD) Size() int64 { return d.p.Capacity }

// SetOpHook installs a callback invoked after every completed operation.
func (d *HDD) SetOpHook(fn func(storage.Op)) {
	d.mu.Lock()
	d.onOp = fn
	d.mu.Unlock()
}

// AdoptBase makes image the drive's initial content from offset 0 without
// copying it and without charging anything: it decides where the bytes live
// on the host, not what the simulated drive did. Writes land in a private
// copy-on-write overlay, and a write of image[off:off+n] at off — a bulk
// load of the adopted image — is charged like any write but stores nothing.
// The caller must never modify image afterwards; drives adopting the same
// image share it. Adopting onto a drive that has been written panics.
func (d *HDD) AdoptBase(image []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf.SetBase(image)
}

// seekTime returns the head-travel cost for moving distance bytes,
// using the standard concave (square-root) seek curve.
func (d *HDD) seekTime(distance int64) time.Duration {
	if distance == 0 {
		return 0
	}
	frac := float64(distance) / float64(d.p.Capacity)
	span := float64(d.p.FullStrokeSeek - d.p.TrackToTrackSeek)
	return d.p.TrackToTrackSeek + time.Duration(span*math.Sqrt(frac))
}

// cost computes and accounts the service time for a request at off of n
// bytes, split into mechanical positioning (seek + rotation) and transfer
// (command overhead + media streaming) so the two phases can be attributed
// separately on the clock. The caller holds d.mu.
func (d *HDD) cost(off int64, n int) (seekLat, xferLat time.Duration, seek bool) {
	xferLat = d.p.CommandOverhead
	if off == d.nextSeq {
		// Sequential continuation: the head is already in position and the
		// target sector is passing under it; only transfer time applies.
		d.seqHits++
	} else {
		seek = true
		dist := off - d.headPos
		if dist < 0 {
			dist = -dist
		}
		seekLat = d.seekTime(dist) + d.halfRot
	}
	xferLat += time.Duration(float64(n) * d.nsPerByte)
	d.headPos = off + int64(n)
	d.nextSeq = off + int64(n)
	return seekLat, xferLat, seek
}

// charge advances the clock by the two cost phases under their attribution
// labels and returns the combined service time.
func (d *HDD) charge(seekLat, xferLat time.Duration) time.Duration {
	if seekLat > 0 {
		d.clock.AdvanceAttr(seekLat, simclock.CompHDDSeek)
	}
	d.clock.AdvanceAttr(xferLat, simclock.CompHDDTransfer)
	return seekLat + xferLat
}

// ReadAt implements storage.Device.
func (d *HDD) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.p.Capacity, off, len(p)); err != nil {
		return 0, err
	}
	d.buf.ReadAt(p, off)
	seekLat, xferLat, seek := d.cost(off, len(p))
	lat := d.charge(seekLat, xferLat)
	d.record(storage.OpRead, off, len(p), lat, seek)
	return lat, nil
}

// WriteAt implements storage.Device.
func (d *HDD) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.p.Capacity, off, len(p)); err != nil {
		return 0, err
	}
	d.buf.WriteAt(p, off)
	seekLat, xferLat, seek := d.cost(off, len(p))
	lat := d.charge(seekLat, xferLat)
	d.record(storage.OpWrite, off, len(p), lat, seek)
	return lat, nil
}

func (d *HDD) record(kind storage.OpKind, off int64, n int, lat time.Duration, seek bool) {
	d.stats.Record(kind, n, lat)
	if d.onOp != nil {
		d.onOp(storage.Op{Device: d.name, Kind: kind, Offset: off, Len: n, Latency: lat, Seek: seek})
	}
}

// Stats returns a snapshot of the operation counters.
func (d *HDD) Stats() storage.DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SequentialHits returns how many requests continued a sequential run and
// therefore paid no seek or rotational latency.
func (d *HDD) SequentialHits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seqHits
}
