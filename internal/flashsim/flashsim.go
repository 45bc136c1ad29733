// Package flashsim simulates a NAND-flash solid state drive behind an ideal
// page-mapping flash translation layer, the FTL baseline the paper adopts
// (§II-A, Table III).
//
// The simulator models what the paper's evaluation measures inside the SSD:
//
//   - a page (2 KB) is the read/program unit, a block (64 pages = 128 KB)
//     is the erase unit;
//   - writes are out-of-place: each logical-page write programs a fresh
//     physical page at the log frontier and invalidates the old copy;
//   - when free blocks run low, greedy garbage collection relocates the
//     valid pages of the block with the fewest valid pages and erases it,
//     charging read+program per relocated page and one erase per block;
//   - Trim invalidates pages without erasing, making future GC cheaper;
//   - per-block erase counts provide the wear metric of Fig 19(a).
//
// Data is stored physically: garbage collection really copies bytes between
// physical pages, so data-integrity-across-GC is a testable invariant rather
// than an assumption.
package flashsim

import (
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
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
	// SpareBlocks is over-provisioned space invisible to the host. Must be
	// at least 2 so garbage collection can always make progress.
	SpareBlocks int
	// PageReadLatency is the cost of reading one page (paper: 32.725 µs).
	PageReadLatency time.Duration
	// PageWriteLatency is the cost of programming one page (paper: 101.475 µs).
	PageWriteLatency time.Duration
	// BlockEraseLatency is the cost of erasing one block (paper: 1.5 ms).
	BlockEraseLatency time.Duration
	// GCLowWater triggers garbage collection when the free-block count
	// drops to this value. Defaults to max(2, SpareBlocks/2).
	GCLowWater int
}

// DefaultParams returns the paper's Table III configuration sized to the
// given logical capacity in bytes (rounded up to whole blocks), with 7%
// over-provisioning like the Intel 320.
func DefaultParams(logicalBytes int64) Params {
	const pageSize = 2 << 10
	const pagesPerBlock = 64
	blockBytes := int64(pageSize * pagesPerBlock)
	blocks := int((logicalBytes + blockBytes - 1) / blockBytes)
	if blocks < 1 {
		blocks = 1
	}
	spare := blocks * 7 / 100
	if spare < 4 {
		spare = 4
	}
	return Params{
		PageSize:          pageSize,
		PagesPerBlock:     pagesPerBlock,
		ExportedBlocks:    blocks,
		SpareBlocks:       spare,
		PageReadLatency:   32725 * time.Nanosecond,
		PageWriteLatency:  101475 * time.Nanosecond,
		BlockEraseLatency: 1500 * time.Microsecond,
	}
}

const (
	pageFree int8 = iota
	pageValid
	pageInvalid
)

// SSD is a simulated flash drive implementing storage.Device and
// storage.Trimmer.
type SSD struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	p     Params

	logicalPages  int
	physicalPages int
	blockBytes    int64

	nand *nandArray
	l2p  []int32 // logical page -> physical page, -1 unmapped
	p2l  []int32 // physical page -> logical page, -1

	freeBlocks  []int  // stack of fully-erased block indices
	inFree      []bool // per block: is it on freeBlocks
	pageBuf     []byte // one page of scratch for read-modify-write
	activeBlock int    // block currently accepting programs, -1 none
	activeNext  int    // next free page index within activeBlock
	gcLowWater  int

	stats        storage.DeviceStats
	gcPageCopies int64
	gcRuns       int64
	hostPages    int64 // pages programmed on behalf of the host
	onOp         func(storage.Op)
}

// New builds an SSD on the shared clock. It panics on invalid geometry so
// misconfiguration fails loudly at setup time.
func New(name string, clock *simclock.Clock, p Params) *SSD {
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.ExportedBlocks <= 0 {
		panic(fmt.Sprintf("flashsim: invalid geometry %+v", p))
	}
	if p.SpareBlocks < 2 {
		panic("flashsim: need at least 2 spare blocks for GC progress")
	}
	if p.GCLowWater == 0 {
		p.GCLowWater = p.SpareBlocks / 2
		if p.GCLowWater < 2 {
			p.GCLowWater = 2
		}
	}
	if p.PageReadLatency == 0 {
		p.PageReadLatency = 32725 * time.Nanosecond
	}
	if p.PageWriteLatency == 0 {
		p.PageWriteLatency = 101475 * time.Nanosecond
	}
	if p.BlockEraseLatency == 0 {
		p.BlockEraseLatency = 1500 * time.Microsecond
	}
	totalBlocks := p.ExportedBlocks + p.SpareBlocks
	d := &SSD{
		name:          name,
		clock:         clock,
		p:             p,
		logicalPages:  p.ExportedBlocks * p.PagesPerBlock,
		physicalPages: totalBlocks * p.PagesPerBlock,
		blockBytes:    int64(p.PageSize * p.PagesPerBlock),
		nand:          newNANDArray(p.PageSize, p.PagesPerBlock, totalBlocks),
		activeBlock:   -1,
		gcLowWater:    p.GCLowWater,
	}
	d.l2p = make([]int32, d.logicalPages)
	d.p2l = make([]int32, d.physicalPages)
	for i := range d.l2p {
		d.l2p[i] = -1
	}
	for i := range d.p2l {
		d.p2l[i] = -1
	}
	d.freeBlocks = make([]int, totalBlocks)
	d.inFree = make([]bool, totalBlocks)
	for i := range d.freeBlocks {
		d.freeBlocks[i] = totalBlocks - 1 - i // pop order: block 0 first
		d.inFree[i] = true
	}
	d.pageBuf = make([]byte, p.PageSize)
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

// ReadAt implements storage.Device. Cost is one page-read per logical page
// touched; unmapped pages return zeros but still pay the page read (the
// controller cannot know the page is unmapped before the lookup completes
// in an ideal page-mapped FTL we charge the array access uniformly).
func (d *SSD) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, len(p)); err != nil {
		return 0, err
	}
	var lat time.Duration
	remaining := p
	pos := off
	for len(remaining) > 0 {
		lp := pos / int64(d.p.PageSize)
		po := pos % int64(d.p.PageSize)
		n := int64(d.p.PageSize) - po
		if int64(len(remaining)) < n {
			n = int64(len(remaining))
		}
		phys := d.l2p[lp]
		if phys >= 0 {
			d.nand.readAt(phys, int(po), remaining[:n])
		} else {
			clear(remaining[:n])
		}
		lat += d.p.PageReadLatency
		remaining = remaining[n:]
		pos += n
	}
	d.clock.AdvanceAttr(lat, simclock.CompSSDRead)
	d.stats.Record(storage.OpRead, len(p), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpRead, Offset: off, Len: len(p), Latency: lat})
	return lat, nil
}

// WriteAt implements storage.Device. Every touched logical page is written
// out-of-place to the log frontier; pages only partially covered by the
// write incur a read-modify-write (one extra page read). Garbage-collection
// work triggered by the write is charged to the write's latency, exactly as
// a host would observe it.
func (d *SSD) WriteAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, len(p)); err != nil {
		return 0, err
	}
	var lat time.Duration
	remaining := p
	pos := off
	for len(remaining) > 0 {
		lp := pos / int64(d.p.PageSize)
		po := pos % int64(d.p.PageSize)
		n := int64(d.p.PageSize) - po
		if int64(len(remaining)) < n {
			n = int64(len(remaining))
		}
		content := remaining[:n] // a whole page is programmed from the caller's bytes
		if po != 0 || n != int64(d.p.PageSize) {
			// Partial page: read-modify-write.
			content = d.pageBuf
			if old := d.l2p[lp]; old >= 0 {
				d.nand.readPage(old, content)
				lat += d.p.PageReadLatency
			} else {
				clear(content)
			}
			copy(content[po:po+n], remaining[:n])
		}
		lat += d.programPage(lp, content)
		remaining = remaining[n:]
		pos += n
	}
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	d.stats.Record(storage.OpWrite, len(p), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpWrite, Offset: off, Len: len(p), Latency: lat})
	return lat, nil
}

// programPage writes one full page of content for logical page lp at the
// log frontier and returns the charged latency (program + any GC work).
// Caller holds d.mu.
func (d *SSD) programPage(lp int64, content []byte) time.Duration {
	lat := d.ensureFrontier()
	phys := int32(d.activeBlock*d.p.PagesPerBlock + d.activeNext)
	d.activeNext++
	d.nand.programPage(phys, content)
	if old := d.l2p[lp]; old >= 0 {
		d.invalidatePhys(old)
	}
	d.l2p[lp] = phys
	d.p2l[phys] = int32(lp)
	d.hostPages++
	return lat + d.p.PageWriteLatency
}

// ensureFrontier guarantees the active block has a free page, opening a new
// block (and running GC when free blocks are scarce) as needed. It returns
// any latency incurred by GC. Caller holds d.mu.
func (d *SSD) ensureFrontier() time.Duration {
	var lat time.Duration
	if d.activeBlock >= 0 && d.activeNext < d.p.PagesPerBlock {
		return 0
	}
	if len(d.freeBlocks) <= d.gcLowWater {
		lat += d.collectGarbage()
	}
	if len(d.freeBlocks) == 0 {
		panic("flashsim: out of free blocks; GC failed to reclaim space")
	}
	d.openFreeBlock()
	return lat
}

// openFreeBlock pops a free block and makes it the log frontier.
func (d *SSD) openFreeBlock() {
	d.activeBlock = d.freeBlocks[len(d.freeBlocks)-1]
	d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	d.inFree[d.activeBlock] = false
	d.activeNext = 0
}

// collectGarbage reclaims blocks until the free count exceeds the low-water
// mark. Victims are chosen greedily (fewest valid pages). Caller holds d.mu.
func (d *SSD) collectGarbage() time.Duration {
	var lat time.Duration
	for len(d.freeBlocks) <= d.gcLowWater {
		victim := d.pickVictim()
		if victim < 0 {
			break // nothing reclaimable; drive is genuinely full of valid data
		}
		d.gcRuns++
		lat += d.relocateAndErase(victim)
	}
	return lat
}

// pickVictim returns the non-active block with the fewest valid pages that
// has at least one reclaimable (non-valid) page, or -1 when none exists.
func (d *SSD) pickVictim() int {
	best := -1
	bestValid := d.p.PagesPerBlock + 1
	for b := range d.nand.blockValid {
		if b == d.activeBlock || d.inFree[b] {
			continue
		}
		if d.nand.blockValid[b] < bestValid {
			bestValid = d.nand.blockValid[b]
			best = b
		}
	}
	if best >= 0 && bestValid == d.p.PagesPerBlock {
		return -1 // every candidate is fully valid; erasing gains nothing
	}
	return best
}

// relocateAndErase moves victim's valid pages to the frontier and erases
// it. Caller holds d.mu.
func (d *SSD) relocateAndErase(victim int) time.Duration {
	var lat time.Duration
	base := victim * d.p.PagesPerBlock
	for i := 0; i < d.p.PagesPerBlock; i++ {
		phys := int32(base + i)
		if d.nand.pageState[phys] != pageValid {
			continue
		}
		lp := d.p2l[phys]
		lat += d.p.PageReadLatency

		// Program to the frontier. The frontier can never be the victim:
		// the victim is not the active block, and if the active block fills
		// mid-relocation we open a fresh free block (freeBlocks is non-empty
		// because GC only starts with at least one free block and erasing
		// the victim at the end adds another).
		if d.activeBlock < 0 || d.activeNext >= d.p.PagesPerBlock {
			if len(d.freeBlocks) == 0 {
				panic("flashsim: GC deadlock, no free block for relocation")
			}
			d.openFreeBlock()
		}
		dst := int32(d.activeBlock*d.p.PagesPerBlock + d.activeNext)
		d.activeNext++
		d.nand.copyPage(phys, dst)
		d.nand.invalidatePage(phys)
		lat += d.p.PageWriteLatency

		d.p2l[dst] = lp
		d.l2p[lp] = dst
		d.gcPageCopies++
	}
	// Erase the victim.
	for i := 0; i < d.p.PagesPerBlock; i++ {
		d.p2l[base+i] = -1
	}
	d.nand.eraseBlock(victim)
	d.freeBlocks = append(d.freeBlocks, victim)
	d.inFree[victim] = true
	lat += d.p.BlockEraseLatency
	d.stats.Record(storage.OpErase, int(d.blockBytes), d.p.BlockEraseLatency)
	return lat
}

// Trim implements storage.Trimmer: logical pages fully covered by the range
// are unmapped (their physical copies become invalid, reclaimable for free
// by GC); partially covered edge pages are zero-filled via read-modify-
// write. Trimmed ranges read back as zeros.
func (d *SSD) Trim(off, n int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, int(n)); err != nil {
		return 0, err
	}
	var lat time.Duration
	pageSize := int64(d.p.PageSize)
	pos := off
	end := off + n
	for pos < end {
		lp := pos / pageSize
		po := pos % pageSize
		span := pageSize - po
		if end-pos < span {
			span = end - pos
		}
		if po == 0 && span == pageSize {
			if phys := d.l2p[lp]; phys >= 0 {
				d.invalidatePhys(phys)
				d.l2p[lp] = -1
			}
		} else if phys := d.l2p[lp]; phys >= 0 {
			// Partial-page trim: rewrite the page with the range zeroed.
			d.nand.readPage(phys, d.pageBuf)
			lat += d.p.PageReadLatency
			clear(d.pageBuf[po : po+span])
			lat += d.programPage(lp, d.pageBuf)
			d.hostPages-- // RMW bookkeeping, not host payload
		}
		pos += span
	}
	// Command processing cost for the trim itself is negligible next to
	// page operations; charge a fixed 10 µs like real NCQ trim commands.
	lat += 10 * time.Microsecond
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	d.stats.Record(storage.OpTrim, int(n), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpTrim, Offset: off, Len: int(n), Latency: lat})
	return lat, nil
}

func (d *SSD) invalidatePhys(phys int32) {
	d.nand.invalidatePage(phys)
	d.p2l[phys] = -1
}

func (d *SSD) emit(op storage.Op) {
	if d.onOp != nil {
		d.onOp(op)
	}
}

// Stats returns host-visible operation counters (erases included).
func (d *SSD) Stats() storage.DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// WearStats summarizes flash wear and garbage-collection overhead.
type WearStats struct {
	// TotalErases counts block erasures since creation (Fig 19a metric).
	TotalErases int64
	// MaxBlockErases is the most-worn block's erase count.
	MaxBlockErases int64
	// GCRuns counts garbage-collection victim reclamations.
	GCRuns int64
	// GCPageCopies counts valid pages relocated by GC.
	GCPageCopies int64
	// HostPagesWritten counts pages programmed for host writes.
	HostPagesWritten int64
	// WriteAmplification is (host + GC pages programmed) / host pages.
	WriteAmplification float64
	// FreeBlocks is the current count of erased, writable blocks.
	FreeBlocks int
}

// Wear returns a snapshot of wear and GC counters.
func (d *SSD) Wear() WearStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, maxE := d.nand.wearSummary()
	wa := 0.0
	if d.hostPages > 0 {
		wa = float64(d.hostPages+d.gcPageCopies) / float64(d.hostPages)
	}
	return WearStats{
		TotalErases:        total,
		MaxBlockErases:     maxE,
		GCRuns:             d.gcRuns,
		GCPageCopies:       d.gcPageCopies,
		HostPagesWritten:   d.hostPages,
		WriteAmplification: wa,
		FreeBlocks:         len(d.freeBlocks),
	}
}

// PageSize returns the NAND page size in bytes.
func (d *SSD) PageSize() int { return d.p.PageSize }

// BlockSize returns the erase-block size in bytes.
func (d *SSD) BlockSize() int64 { return d.blockBytes }
