// Package flashsim simulates a NAND-flash solid state drive: one device
// shell (SSD) in front of one of the three flash translation layers the
// paper surveys in §II-A — the ideal page-mapped FTL it baselines on
// (Table III), a block-mapped table and a hybrid log-block scheme (NewFTL).
//
// The simulator models what the paper's evaluation measures inside the SSD:
//
//   - a page (2 KB) is the read/program unit, a block (64 pages = 128 KB)
//     is the erase unit;
//   - writes are out-of-place: a page is programmed once per erase cycle,
//     so an overwrite lands on a fresh physical page and the FTL's mapping
//     table decides where, and what reclaiming the stale copy costs;
//   - page-mapped: greedy garbage collection relocates the valid pages of
//     the block with the fewest valid pages and erases it, charging
//     read+program per relocated page and one erase per block;
//   - Trim invalidates pages without erasing, making future GC cheaper;
//   - per-block erase counts provide the wear metric of Fig 19(a).
//
// Data is stored physically: each physical page holds its own bytes, and
// garbage collection moves them to the page it relocates to, so
// data-integrity-across-GC is a testable invariant rather than an assumption.
package flashsim

import (
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// The paper's Table III medium: the one spelling of each number. Every
// drive runs at these timings; DefaultParams takes its geometry from here.
const (
	tablePageSize      = 2 << 10
	tablePagesPerBlock = 64
	// TablePageRead is the cost of reading one page.
	TablePageRead = 32725 * time.Nanosecond
	// TablePageWrite is the cost of programming one page.
	TablePageWrite = 101475 * time.Nanosecond
	// TableBlockErase is the cost of erasing one block.
	TableBlockErase = 1500 * time.Microsecond
)

// Params configures the simulated drive. The zero value is invalid; start
// from DefaultParams.
type Params struct {
	// PageSize is the NAND page size in bytes (paper: 2 KB).
	PageSize int
	// PagesPerBlock is the erase-block size in pages (paper: 64).
	PagesPerBlock int
	// ExportedBlocks is the number of blocks of logical (user) capacity.
	ExportedBlocks int
	// SpareBlocks is over-provisioned space invisible to the host. Each FTL
	// has a minimum below which its reclamation cannot make progress (the
	// ftls table); NewFTL panics under it.
	SpareBlocks int
}

// DefaultParams returns the paper's Table III configuration sized to the
// given logical capacity in bytes (rounded up to whole blocks), with 7%
// over-provisioning like the Intel 320.
func DefaultParams(logicalBytes int64) Params {
	blockBytes := int64(tablePageSize * tablePagesPerBlock)
	blocks := max(1, int((logicalBytes+blockBytes-1)/blockBytes))
	return Params{
		PageSize:       tablePageSize,
		PagesPerBlock:  tablePagesPerBlock,
		ExportedBlocks: blocks,
		SpareBlocks:    max(4, blocks*7/100),
	}
}

const (
	pageFree int8 = iota
	pageValid
	pageInvalid
)

// ftl is the part of a drive that differs between FTL families: the
// logical-to-physical mapping tables and the reclamation they force. The
// SSD in front of it splits host ranges into pages, completes partial
// pages, charges the clock and keeps the counters; an ftl only ever sees
// whole logical pages, and runs under the SSD's lock.
type ftl interface {
	// lookup returns the newest valid physical page of logical page lp, or
	// -1 when lp holds no data (never written, or trimmed).
	lookup(lp int) int32
	// program stores one whole page of content as lp's new copy and returns
	// the charged latency: the program plus any GC or merge it set off.
	program(lp int, content []byte) time.Duration
	// discard drops lp's mapping (a whole-page trim) and returns the latency
	// of any reclamation done eagerly.
	discard(lp int) time.Duration
}

// SSD is a simulated flash drive implementing storage.Device and
// storage.Trimmer. It owns everything a drive does whatever its mapping —
// lock, geometry, the NAND medium, the free-block stack, page splitting
// and read-modify-write, clock charges, counters and the op hook — and
// delegates placement to its ftl.
type SSD struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	p     Params

	logicalPages int
	nand         *nandArray
	ftl          ftl
	freeBlocks   []int  // stack of fully-erased blocks no FTL structure holds
	pageBuf      []byte // one page of scratch for read-modify-write

	stats     storage.DeviceStats
	gcRuns    int64 // GC victims reclaimed / block merges, counted by the ftl
	hostPages int64 // pages programmed by WriteAt
	onOp      func(storage.Op)
}

// New builds a page-mapped SSD — the paper's baseline — on the shared
// clock. Like NewFTL it panics on invalid geometry so misconfiguration
// fails loudly at setup time.
func New(name string, clock *simclock.Clock, p Params) *SSD {
	return NewFTL(FTLPageMap, name, clock, p)
}

// NewFTL builds an SSD behind the given FTL.
func NewFTL(kind FTLKind, name string, clock *simclock.Clock, p Params) *SSD {
	if !kind.Valid() {
		panic(fmt.Sprintf("flashsim: unknown FTL %d", int(kind)))
	}
	f := ftls[kind]
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.ExportedBlocks <= 0 {
		panic(fmt.Sprintf("flashsim: invalid geometry %+v", p))
	}
	if p.SpareBlocks < f.minSpare {
		panic(fmt.Sprintf("flashsim: %s FTL needs at least %d spare blocks (%s), have %d",
			f.name, f.minSpare, f.spareFor, p.SpareBlocks))
	}
	totalBlocks := p.ExportedBlocks + p.SpareBlocks
	d := &SSD{
		name:         name,
		clock:        clock,
		p:            p,
		logicalPages: p.ExportedBlocks * p.PagesPerBlock,
		nand:         newNANDArray(p.PageSize, p.PagesPerBlock, totalBlocks),
		freeBlocks:   make([]int, totalBlocks),
		pageBuf:      make([]byte, p.PageSize),
	}
	for i := range d.freeBlocks {
		d.freeBlocks[i] = totalBlocks - 1 - i // pop order: block 0 first
	}
	d.ftl = f.build(d)
	return d
}

// Name implements storage.Device.
func (d *SSD) Name() string { return d.name }

// Size implements storage.Device: the logical (exported) capacity.
func (d *SSD) Size() int64 { return int64(d.logicalPages) * int64(d.p.PageSize) }

// SetOpHook installs a callback invoked after every host-visible operation.
func (d *SSD) SetOpHook(fn func(storage.Op)) {
	d.mu.Lock()
	d.onOp = fn
	d.mu.Unlock()
}

// walkPages cuts the byte range [off, off+n) at its page boundaries and
// calls fn for each piece in order: the logical page, the piece's offset in
// it, the piece's offset in the range and its length. Only the first piece
// can start inside a page, so the range is divided once and every later
// piece starts at offset 0 of the next page.
func (d *SSD) walkPages(off, n int64, fn func(lp, po, at, span int)) {
	pageSize := int64(d.p.PageSize)
	lp, po := off/pageSize, off%pageSize
	for at := int64(0); at < n; lp, po = lp+1, 0 {
		span := min(pageSize-po, n-at)
		fn(int(lp), int(po), int(at), int(span))
		at += span
	}
}

// ReadAt implements storage.Device. Cost is one page-read per logical page
// touched; pages holding no data return zeros but still pay the page read
// (the controller cannot know a page is unmapped before the lookup
// completes, so the array access is charged uniformly).
func (d *SSD) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, len(p)); err != nil {
		return 0, err
	}
	var lat time.Duration
	d.walkPages(off, int64(len(p)), func(lp, po, at, n int) {
		dst := p[at:][:n]
		if phys := d.ftl.lookup(lp); phys >= 0 {
			d.nand.readAt(phys, po, dst)
		} else {
			clear(dst)
		}
		lat += TablePageRead
	})
	d.clock.AdvanceAttr(lat, simclock.CompSSDRead)
	return d.done(storage.OpRead, off, len(p), lat)
}

// WriteAt implements storage.Device. Every touched logical page is written
// out-of-place wherever the FTL puts it; pages only partially covered by
// the write incur a read-modify-write (one extra page read). Reclamation
// work triggered by the write is charged to the write's latency, exactly as
// a host would observe it.
func (d *SSD) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, len(p)); err != nil {
		return 0, err
	}
	var lat time.Duration
	d.walkPages(off, int64(len(p)), func(lp, po, at, n int) {
		src := p[at:][:n]
		content := src // a whole page is programmed from the caller's bytes
		if n != d.p.PageSize {
			// Partial page: read-modify-write.
			content = d.pageBuf
			if old := d.ftl.lookup(lp); old >= 0 {
				d.nand.readAt(old, 0, content)
				lat += TablePageRead
			} else {
				clear(content)
			}
			copy(content[po:], src)
		}
		lat += d.ftl.program(lp, content)
		d.hostPages++
	})
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	return d.done(storage.OpWrite, off, len(p), lat)
}

// Trim implements storage.Trimmer: logical pages fully covered by the range
// are unmapped (their physical copies become invalid, reclaimable without
// relocation); partially covered edge pages are zero-filled via read-
// modify-write, whatever the FTL. Trimmed ranges read back as zeros.
func (d *SSD) Trim(off, n int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, int(n)); err != nil {
		return 0, err
	}
	var lat time.Duration
	d.walkPages(off, n, func(lp, po, _, span int) {
		if span == d.p.PageSize {
			lat += d.ftl.discard(lp)
		} else if old := d.ftl.lookup(lp); old >= 0 {
			// Partial-page trim: rewrite the page with the range zeroed.
			// Bookkeeping, not host payload: hostPages does not move.
			d.nand.readAt(old, 0, d.pageBuf)
			clear(d.pageBuf[po : po+span])
			lat += TablePageRead + d.ftl.program(lp, d.pageBuf)
		}
	})
	// Command processing cost for the trim itself is negligible next to
	// page operations; charge a fixed 10 µs like real NCQ trim commands.
	lat += 10 * time.Microsecond
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	return d.done(storage.OpTrim, off, int(n), lat)
}

// done counts one finished host operation and reports it to the op hook.
// Caller holds d.mu and has charged the clock (with the operation's own
// attribution label, which is why that call is not in here).
func (d *SSD) done(kind storage.OpKind, off int64, n int, lat time.Duration) (time.Duration, error) {
	d.stats.Record(kind, n, lat)
	if d.onOp != nil {
		d.onOp(storage.Op{Device: d.name, Kind: kind, Offset: off, Len: n, Latency: lat})
	}
	return lat, nil
}

// takeFree pops a fully-erased block for the ftl to fill. Caller holds d.mu.
func (d *SSD) takeFree() int {
	last := len(d.freeBlocks) - 1
	if last < 0 {
		panic("flashsim: out of free blocks; the FTL failed to reclaim space")
	}
	b := d.freeBlocks[last]
	d.freeBlocks = d.freeBlocks[:last]
	return b
}

// erase erases block b, accounts for it and returns it to the free stack:
// the one place a block is erased. It returns the latency for the ftl to
// charge to whatever operation forced the erase. Caller holds d.mu.
func (d *SSD) erase(b int) time.Duration {
	d.nand.eraseBlock(b)
	d.stats.Record(storage.OpErase, int(d.nand.blockBytes()), TableBlockErase)
	d.freeBlocks = append(d.freeBlocks, b)
	return TableBlockErase
}

// Stats returns host-visible operation counters (erases included).
func (d *SSD) Stats() storage.DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// WearStats summarizes flash wear and reclamation overhead. The definitions
// are the same for every FTL.
type WearStats struct {
	// TotalErases counts block erasures since creation (Fig 19a metric).
	TotalErases int64
	// MaxBlockErases is the most-worn block's erase count.
	MaxBlockErases int64
	// GCRuns counts garbage-collection victim reclamations (page-map) or
	// block merges (block-map, hybrid-log).
	GCRuns int64
	// GCPageCopies counts valid pages relocated by GC or merges.
	GCPageCopies int64
	// HostPagesWritten counts pages programmed for host writes.
	HostPagesWritten int64
	// WriteAmplification is (host + relocated pages programmed) / host pages.
	WriteAmplification float64
	// FreeBlocks is the current count of erased, writable blocks.
	FreeBlocks int
}

// Wear returns a snapshot of wear and reclamation counters.
func (d *SSD) Wear() WearStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, maxE := d.nand.wearSummary()
	wa := 0.0
	if d.hostPages > 0 {
		wa = float64(d.hostPages+d.nand.copies) / float64(d.hostPages)
	}
	return WearStats{
		TotalErases:        total,
		MaxBlockErases:     maxE,
		GCRuns:             d.gcRuns,
		GCPageCopies:       d.nand.copies,
		HostPagesWritten:   d.hostPages,
		WriteAmplification: wa,
		FreeBlocks:         len(d.freeBlocks),
	}
}

// PageSize returns the NAND page size in bytes.
func (d *SSD) PageSize() int { return d.p.PageSize }

// BlockSize returns the erase-block size in bytes.
func (d *SSD) BlockSize() int64 { return d.nand.blockBytes() }
