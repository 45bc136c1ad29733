package flashsim

import (
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// BlockSSD is a solid state drive behind a block-mapped FTL (§II-A, [7]):
// the mapping table holds one entry per erase block instead of per page,
// trading SRAM footprint for write behaviour. A logical page must live at
// its fixed offset inside the mapped physical block, so overwriting any
// page forces a block merge — copy every other valid page into a fresh
// block, then erase the old one. Random small writes are catastrophic,
// which is exactly why the paper baselines on the page-mapped ideal and
// why log-structured cache placement matters.
//
// BlockSSD implements storage.Device and storage.Trimmer.
type BlockSSD struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	p     Params

	nand       *nandArray
	l2pBlock   []int32 // logical block -> physical block, -1 unmapped
	p2lBlock   []int32 // physical block -> logical block, -1
	freeBlocks []int
	pageBuf    []byte // one page of scratch for read-modify-write

	stats     storage.DeviceStats
	merges    int64
	hostPages int64
	onOp      func(storage.Op)
}

// NewBlockMapped builds a block-mapped drive with the same geometry
// semantics as New.
func NewBlockMapped(name string, clock *simclock.Clock, p Params) *BlockSSD {
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.ExportedBlocks <= 0 {
		panic(fmt.Sprintf("flashsim: invalid geometry %+v", p))
	}
	if p.SpareBlocks < 1 {
		panic("flashsim: block-mapped FTL needs at least 1 spare block for merges")
	}
	fillLatencyDefaults(&p)
	totalBlocks := p.ExportedBlocks + p.SpareBlocks
	d := &BlockSSD{
		name:     name,
		clock:    clock,
		p:        p,
		nand:     newNANDArray(p.PageSize, p.PagesPerBlock, totalBlocks),
		l2pBlock: make([]int32, p.ExportedBlocks),
		p2lBlock: make([]int32, totalBlocks),
		pageBuf:  make([]byte, p.PageSize),
	}
	for i := range d.l2pBlock {
		d.l2pBlock[i] = -1
	}
	for i := range d.p2lBlock {
		d.p2lBlock[i] = -1
	}
	d.freeBlocks = make([]int, totalBlocks)
	for i := range d.freeBlocks {
		d.freeBlocks[i] = totalBlocks - 1 - i
	}
	return d
}

func fillLatencyDefaults(p *Params) {
	if p.PageReadLatency == 0 {
		p.PageReadLatency = 32725 * time.Nanosecond
	}
	if p.PageWriteLatency == 0 {
		p.PageWriteLatency = 101475 * time.Nanosecond
	}
	if p.BlockEraseLatency == 0 {
		p.BlockEraseLatency = 1500 * time.Microsecond
	}
}

// Name implements storage.Device.
func (d *BlockSSD) Name() string { return d.name }

// Size implements storage.Device.
func (d *BlockSSD) Size() int64 {
	return int64(d.p.ExportedBlocks) * d.nand.blockBytes()
}

// SetOpHook installs a callback invoked after every host operation.
func (d *BlockSSD) SetOpHook(fn func(storage.Op)) {
	d.mu.Lock()
	d.onOp = fn
	d.mu.Unlock()
}

// physPage returns the physical page of logical page lp, or -1.
func (d *BlockSSD) physPage(lp int64) int32 {
	lb := int(lp) / d.p.PagesPerBlock
	pb := d.l2pBlock[lb]
	if pb < 0 {
		return -1
	}
	return pb*int32(d.p.PagesPerBlock) + int32(int(lp)%d.p.PagesPerBlock)
}

// ReadAt implements storage.Device.
func (d *BlockSSD) ReadAt(p []byte, off int64) (time.Duration, error) {
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
		if phys := d.physPage(lp); phys >= 0 && d.nand.pageState[phys] == pageValid {
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

// WriteAt implements storage.Device.
func (d *BlockSSD) WriteAt(p []byte, off int64) (time.Duration, error) {
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
			// Partial page: read-modify-write of the whole page.
			content = d.pageBuf
			if phys := d.physPage(lp); phys >= 0 && d.nand.pageState[phys] == pageValid {
				d.nand.readPage(phys, content)
				lat += d.p.PageReadLatency
			} else {
				clear(content)
			}
			copy(content[po:po+n], remaining[:n])
		}
		lat += d.writePage(lp, content)
		remaining = remaining[n:]
		pos += n
	}
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	d.stats.Record(storage.OpWrite, len(p), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpWrite, Offset: off, Len: len(p), Latency: lat})
	return lat, nil
}

// writePage stores one whole logical page under block mapping. Caller
// holds d.mu.
func (d *BlockSSD) writePage(lp int64, content []byte) time.Duration {
	lb := int(lp) / d.p.PagesPerBlock
	slot := int(lp) % d.p.PagesPerBlock
	pb := d.l2pBlock[lb]
	d.hostPages++

	if pb < 0 {
		// First write to this logical block: map a free block.
		pb = int32(d.takeFree())
		d.l2pBlock[lb] = pb
		d.p2lBlock[pb] = int32(lb)
	}
	phys := pb*int32(d.p.PagesPerBlock) + int32(slot)
	if d.nand.pageState[phys] == pageFree {
		d.nand.programPage(phys, content)
		return d.p.PageWriteLatency
	}
	// The slot is taken: merge into a fresh block, substituting the new
	// content for the overwritten page.
	return d.merge(lb, slot, content)
}

// merge copies the logical block's valid pages into a fresh physical
// block, replacing slot with content, then erases the old block. Caller
// holds d.mu.
func (d *BlockSSD) merge(lb, slot int, content []byte) time.Duration {
	d.merges++
	oldPB := d.l2pBlock[lb]
	newPB := int32(d.takeFree())
	var lat time.Duration
	for i := 0; i < d.p.PagesPerBlock; i++ {
		dst := newPB*int32(d.p.PagesPerBlock) + int32(i)
		if i == slot {
			d.nand.programPage(dst, content)
			lat += d.p.PageWriteLatency
			continue
		}
		src := oldPB*int32(d.p.PagesPerBlock) + int32(i)
		if d.nand.pageState[src] != pageValid {
			continue
		}
		d.nand.copyPage(src, dst)
		lat += d.p.PageReadLatency + d.p.PageWriteLatency
	}
	d.nand.eraseBlock(int(oldPB))
	lat += d.p.BlockEraseLatency
	d.stats.Record(storage.OpErase, int(d.nand.blockBytes()), d.p.BlockEraseLatency)
	d.p2lBlock[oldPB] = -1
	d.freeBlocks = append(d.freeBlocks, int(oldPB))
	d.l2pBlock[lb] = newPB
	d.p2lBlock[newPB] = int32(lb)
	return lat
}

func (d *BlockSSD) takeFree() int {
	if len(d.freeBlocks) == 0 {
		panic("flashsim: block-mapped FTL out of free blocks")
	}
	b := d.freeBlocks[len(d.freeBlocks)-1]
	d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	return b
}

// Trim implements storage.Trimmer: covered pages are invalidated; a fully
// invalid block is unmapped and erased lazily at next merge... block
// mapping cannot reclaim single pages, so whole-block trims erase eagerly.
func (d *BlockSSD) Trim(off, n int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, int(n)); err != nil {
		return 0, err
	}
	var lat time.Duration
	pageSize := int64(d.p.PageSize)
	for pos := off; pos < off+n; {
		lp := pos / pageSize
		po := pos % pageSize
		span := pageSize - po
		if off+n-pos < span {
			span = off + n - pos
		}
		if po == 0 && span == pageSize {
			if phys := d.physPage(lp); phys >= 0 {
				d.nand.invalidatePage(phys)
				lb := int(lp) / d.p.PagesPerBlock
				pb := d.l2pBlock[lb]
				if pb >= 0 && d.nand.blockValid[pb] == 0 {
					d.nand.eraseBlock(int(pb))
					lat += d.p.BlockEraseLatency
					d.stats.Record(storage.OpErase, int(d.nand.blockBytes()), d.p.BlockEraseLatency)
					d.p2lBlock[pb] = -1
					d.l2pBlock[lb] = -1
					d.freeBlocks = append(d.freeBlocks, int(pb))
				}
			}
		}
		pos += span
	}
	lat += 10 * time.Microsecond
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	d.stats.Record(storage.OpTrim, int(n), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpTrim, Offset: off, Len: int(n), Latency: lat})
	return lat, nil
}

func (d *BlockSSD) emit(op storage.Op) {
	if d.onOp != nil {
		d.onOp(op)
	}
}

// Stats returns host-visible operation counters.
func (d *BlockSSD) Stats() storage.DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Wear returns wear and merge counters (GCRuns reports merges).
func (d *BlockSSD) Wear() WearStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	total, maxE := d.nand.wearSummary()
	wa := 0.0
	if d.hostPages > 0 {
		wa = float64(d.nand.programs) / float64(d.hostPages)
	}
	return WearStats{
		TotalErases:        total,
		MaxBlockErases:     maxE,
		GCRuns:             d.merges,
		GCPageCopies:       d.nand.programs - d.hostPages,
		HostPagesWritten:   d.hostPages,
		WriteAmplification: wa,
		FreeBlocks:         len(d.freeBlocks),
	}
}

// PageSize returns the NAND page size in bytes.
func (d *BlockSSD) PageSize() int { return d.p.PageSize }

// BlockSize returns the erase-block size in bytes.
func (d *BlockSSD) BlockSize() int64 { return d.nand.blockBytes() }
