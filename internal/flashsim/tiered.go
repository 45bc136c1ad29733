package flashsim

// Tiered composes two SSDs into one heterogeneous cache device, after
// ECI-Cache-style architectures (Ahmadian et al., PAPERS.md): a small fast
// cache SSD in front of a dense, slower one. The address space is split at
// a fixed boundary — offsets below it route to the fast device, offsets at
// or above it to the slow device (shifted down by the boundary) — so a
// cache manager that lays its hot result region below the boundary and its
// bulk list region above gets tier-appropriate media without knowing two
// devices exist.
//
// Both sub-devices must share one clock so latencies compose; operations
// spanning the boundary are split and their latencies summed, as a real
// host would serialize the two device commands.

import (
	"fmt"
	"time"

	"hybridstore/internal/storage"
)

// Tiered is a two-SSD composite implementing the same device surface as a
// single SSD (storage.Device, storage.Trimmer, wear/stats accessors).
type Tiered struct {
	name     string
	fast     *SSD
	slow     *SSD
	boundary int64
}

// NewTiered builds the composite. boundary is the size of the fast
// device's window and must equal fast.Size(); it must be aligned to both
// devices' block size so cache extents never straddle media.
func NewTiered(name string, fast, slow *SSD, boundary int64) *Tiered {
	if boundary <= 0 || boundary != fast.Size() {
		panic(fmt.Sprintf("flashsim: tier boundary %d != fast device size %d", boundary, fast.Size()))
	}
	if boundary%fast.BlockSize() != 0 || boundary%slow.BlockSize() != 0 {
		panic(fmt.Sprintf("flashsim: tier boundary %d not block-aligned", boundary))
	}
	return &Tiered{name: name, fast: fast, slow: slow, boundary: boundary}
}

// Name returns the composite's name.
func (t *Tiered) Name() string { return t.name }

// Size returns the combined logical capacity.
func (t *Tiered) Size() int64 { return t.boundary + t.slow.Size() }

// Fast returns the fast (cache) tier for per-device inspection.
func (t *Tiered) Fast() *SSD { return t.fast }

// Slow returns the slow (dense) tier for per-device inspection.
func (t *Tiered) Slow() *SSD { return t.slow }

// split maps [off, off+n) onto the two tiers, returning the fast-tier
// prefix length (0 when the range starts past the boundary).
func (t *Tiered) split(off int64, n int) int {
	if off >= t.boundary {
		return 0
	}
	if off+int64(n) <= t.boundary {
		return n
	}
	return int(t.boundary - off)
}

// ReadAt reads across the tiers, summing the devices' latencies.
func (t *Tiered) ReadAt(p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckRange(t.name, t.Size(), off, len(p)); err != nil {
		return 0, err
	}
	nf := t.split(off, len(p))
	var total time.Duration
	if nf > 0 {
		lat, err := t.fast.ReadAt(p[:nf], off)
		if err != nil {
			return total, err
		}
		total += lat
	}
	if nf < len(p) {
		lat, err := t.slow.ReadAt(p[nf:], off+int64(nf)-t.boundary)
		if err != nil {
			return total, err
		}
		total += lat
	}
	return total, nil
}

// WriteAt writes across the tiers, summing the devices' latencies.
func (t *Tiered) WriteAt(p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckRange(t.name, t.Size(), off, len(p)); err != nil {
		return 0, err
	}
	nf := t.split(off, len(p))
	var total time.Duration
	if nf > 0 {
		lat, err := t.fast.WriteAt(p[:nf], off)
		if err != nil {
			return total, err
		}
		total += lat
	}
	if nf < len(p) {
		lat, err := t.slow.WriteAt(p[nf:], off+int64(nf)-t.boundary)
		if err != nil {
			return total, err
		}
		total += lat
	}
	return total, nil
}

// Trim invalidates across the tiers, summing the devices' latencies.
func (t *Tiered) Trim(off, n int64) (time.Duration, error) {
	if err := storage.CheckRange(t.name, t.Size(), off, int(n)); err != nil {
		return 0, err
	}
	nf := int64(t.split(off, int(n)))
	var total time.Duration
	if nf > 0 {
		lat, err := t.fast.Trim(off, nf)
		if err != nil {
			return total, err
		}
		total += lat
	}
	if nf < n {
		lat, err := t.slow.Trim(off+nf-t.boundary, n-nf)
		if err != nil {
			return total, err
		}
		total += lat
	}
	return total, nil
}

// PageSize returns the fast tier's page size (both tiers share geometry in
// every configuration New builds).
func (t *Tiered) PageSize() int { return t.fast.PageSize() }

// BlockSize returns the fast tier's erase-block size.
func (t *Tiered) BlockSize() int64 { return t.fast.BlockSize() }

// Stats returns the combined device statistics of both tiers.
func (t *Tiered) Stats() storage.DeviceStats {
	a, b := t.fast.Stats(), t.slow.Stats()
	return storage.DeviceStats{
		Reads:      a.Reads + b.Reads,
		Writes:     a.Writes + b.Writes,
		Trims:      a.Trims + b.Trims,
		Erases:     a.Erases + b.Erases,
		BytesRead:  a.BytesRead + b.BytesRead,
		BytesWrit:  a.BytesWrit + b.BytesWrit,
		ReadTime:   a.ReadTime + b.ReadTime,
		WriteTime:  a.WriteTime + b.WriteTime,
		TrimTime:   a.TrimTime + b.TrimTime,
		EraseTime:  a.EraseTime + b.EraseTime,
		TotalTime:  a.TotalTime + b.TotalTime,
		Operations: a.Operations + b.Operations,
	}
}

// Wear returns the combined wear of both tiers. Write amplification is
// recomputed from the combined page counts so it stays (host + GC) / host.
func (t *Tiered) Wear() WearStats {
	a, b := t.fast.Wear(), t.slow.Wear()
	w := WearStats{
		TotalErases:      a.TotalErases + b.TotalErases,
		MaxBlockErases:   a.MaxBlockErases,
		GCRuns:           a.GCRuns + b.GCRuns,
		GCPageCopies:     a.GCPageCopies + b.GCPageCopies,
		HostPagesWritten: a.HostPagesWritten + b.HostPagesWritten,
		FreeBlocks:       a.FreeBlocks + b.FreeBlocks,
	}
	if b.MaxBlockErases > w.MaxBlockErases {
		w.MaxBlockErases = b.MaxBlockErases
	}
	if w.HostPagesWritten > 0 {
		w.WriteAmplification = float64(w.HostPagesWritten+w.GCPageCopies) / float64(w.HostPagesWritten)
	}
	return w
}
