package flashsim

import (
	"fmt"
	"sync"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// HybridSSD is a drive behind a simplified FAST-style hybrid log-block FTL
// (§II-A, [8][9]): data blocks are block-mapped, while a small pool of
// page-mapped log blocks absorbs overwrites. When the log pool fills, the
// oldest log block is reclaimed by *full merges* of every logical block it
// holds pages for. The paper cites this family as the practical middle
// ground between page- and block-mapped tables.
//
// HybridSSD implements storage.Device and storage.Trimmer.
type HybridSSD struct {
	mu    sync.Mutex
	name  string
	clock *simclock.Clock
	p     Params

	nand     *nandArray
	l2pBlock []int32 // logical block -> physical data block, -1
	p2lBlock []int32 // physical data block -> logical block, -1

	logBlocks []int           // physical blocks serving as the log, oldest first
	logNext   int             // next free page slot in the newest log block
	logMap    map[int64]int32 // logical page -> physical page in the log (latest copy)
	logPool   int             // number of log blocks allowed

	freeBlocks []int
	pageBuf    []byte // one page of scratch for read-modify-write

	stats     storage.DeviceStats
	merges    int64
	hostPages int64
	onOp      func(storage.Op)
}

// NewHybridLog builds a hybrid log-block drive. The log pool takes half
// the spare blocks (at least one), the rest provide merge headroom.
func NewHybridLog(name string, clock *simclock.Clock, p Params) *HybridSSD {
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.ExportedBlocks <= 0 {
		panic(fmt.Sprintf("flashsim: invalid geometry %+v", p))
	}
	if p.SpareBlocks < 3 {
		panic("flashsim: hybrid log FTL needs at least 3 spare blocks")
	}
	fillLatencyDefaults(&p)
	totalBlocks := p.ExportedBlocks + p.SpareBlocks
	d := &HybridSSD{
		name:     name,
		clock:    clock,
		p:        p,
		nand:     newNANDArray(p.PageSize, p.PagesPerBlock, totalBlocks),
		l2pBlock: make([]int32, p.ExportedBlocks),
		p2lBlock: make([]int32, totalBlocks),
		logMap:   make(map[int64]int32),
		logPool:  p.SpareBlocks / 2,
		pageBuf:  make([]byte, p.PageSize),
	}
	if d.logPool < 1 {
		d.logPool = 1
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

// Name implements storage.Device.
func (d *HybridSSD) Name() string { return d.name }

// Size implements storage.Device.
func (d *HybridSSD) Size() int64 {
	return int64(d.p.ExportedBlocks) * d.nand.blockBytes()
}

// SetOpHook installs a callback invoked after every host operation.
func (d *HybridSSD) SetOpHook(fn func(storage.Op)) {
	d.mu.Lock()
	d.onOp = fn
	d.mu.Unlock()
}

// latestPhys returns the newest valid physical copy of lp (log first,
// then the data block), or -1.
func (d *HybridSSD) latestPhys(lp int64) int32 {
	if phys, ok := d.logMap[lp]; ok {
		return phys
	}
	lb := int(lp) / d.p.PagesPerBlock
	pb := d.l2pBlock[lb]
	if pb < 0 {
		return -1
	}
	phys := pb*int32(d.p.PagesPerBlock) + int32(int(lp)%d.p.PagesPerBlock)
	if d.nand.pageState[phys] != pageValid {
		return -1
	}
	return phys
}

// ReadAt implements storage.Device.
func (d *HybridSSD) ReadAt(p []byte, off int64) (time.Duration, error) {
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
		if phys := d.latestPhys(lp); phys >= 0 {
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
func (d *HybridSSD) WriteAt(p []byte, off int64) (time.Duration, error) {
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
			content = d.pageBuf
			if phys := d.latestPhys(lp); phys >= 0 {
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

// writePage stores one whole logical page. Caller holds d.mu.
func (d *HybridSSD) writePage(lp int64, content []byte) time.Duration {
	d.hostPages++
	lb := int(lp) / d.p.PagesPerBlock
	slot := int(lp) % d.p.PagesPerBlock

	// Fast path: the slot in the data block is still free (first write or
	// strictly sequential fill) and the log holds no copy that would shadow
	// it — a merge set off by a write to a trimmed page leaves exactly that:
	// a rebuilt data block with the slot free, and the page in the log.
	if pb := d.l2pBlock[lb]; pb >= 0 {
		phys := pb*int32(d.p.PagesPerBlock) + int32(slot)
		if _, logged := d.logMap[lp]; !logged && d.nand.pageState[phys] == pageFree {
			d.nand.programPage(phys, content)
			return d.p.PageWriteLatency
		}
	} else if d.l2pBlock[lb] < 0 {
		pb := int32(d.takeFree())
		d.l2pBlock[lb] = pb
		d.p2lBlock[pb] = int32(lb)
		phys := pb*int32(d.p.PagesPerBlock) + int32(slot)
		d.nand.programPage(phys, content)
		return d.p.PageWriteLatency
	}

	// Overwrite: append to the log.
	var lat time.Duration
	lat += d.ensureLogSpace()
	logBlock := d.logBlocks[len(d.logBlocks)-1]
	phys := int32(logBlock*d.p.PagesPerBlock + d.logNext)
	d.logNext++
	if old, ok := d.logMap[lp]; ok {
		d.nand.invalidatePage(old)
	} else {
		// The data-block copy is now stale.
		if pb := d.l2pBlock[lb]; pb >= 0 {
			dataPhys := pb*int32(d.p.PagesPerBlock) + int32(slot)
			d.nand.invalidatePage(dataPhys)
		}
	}
	d.nand.programPage(phys, content)
	d.logMap[lp] = phys
	return lat + d.p.PageWriteLatency
}

// ensureLogSpace opens a new log block, merging the oldest when the pool
// is exhausted. Caller holds d.mu.
func (d *HybridSSD) ensureLogSpace() time.Duration {
	if len(d.logBlocks) > 0 && d.logNext < d.p.PagesPerBlock {
		return 0
	}
	var lat time.Duration
	if len(d.logBlocks) >= d.logPool {
		lat += d.mergeOldestLog()
	}
	d.logBlocks = append(d.logBlocks, d.takeFree())
	d.logNext = 0
	return lat
}

// mergeOldestLog reclaims the oldest log block with full merges of every
// logical block that has its latest copy there. Caller holds d.mu.
func (d *HybridSSD) mergeOldestLog() time.Duration {
	victim := d.logBlocks[0]
	d.logBlocks = d.logBlocks[1:]
	var lat time.Duration

	// Collect the logical blocks whose latest copies live in the victim.
	needMerge := make(map[int]bool)
	base := int32(victim * d.p.PagesPerBlock)
	for i := int32(0); i < int32(d.p.PagesPerBlock); i++ {
		phys := base + i
		if d.nand.pageState[phys] != pageValid {
			continue
		}
		// Find which lp maps here (reverse scan of logMap — the log is
		// small, so a map walk per merge is acceptable).
		for lp, mapped := range d.logMap {
			if mapped == phys {
				needMerge[int(lp)/d.p.PagesPerBlock] = true
				break
			}
		}
	}
	for lb := range needMerge {
		lat += d.fullMerge(lb)
	}
	// Every remaining page in the victim is now invalid; erase it.
	d.nand.eraseBlock(victim)
	lat += d.p.BlockEraseLatency
	d.stats.Record(storage.OpErase, int(d.nand.blockBytes()), d.p.BlockEraseLatency)
	d.freeBlocks = append(d.freeBlocks, victim)
	return lat
}

// fullMerge rebuilds logical block lb from its newest copies (log or data
// block) into a fresh physical block. Caller holds d.mu.
func (d *HybridSSD) fullMerge(lb int) time.Duration {
	d.merges++
	var lat time.Duration
	newPB := int32(d.takeFree())
	oldPB := d.l2pBlock[lb]
	for slot := 0; slot < d.p.PagesPerBlock; slot++ {
		lp := int64(lb*d.p.PagesPerBlock + slot)
		src := d.latestPhys(lp)
		if src < 0 {
			continue
		}
		dst := newPB*int32(d.p.PagesPerBlock) + int32(slot)
		d.nand.copyPage(src, dst)
		d.nand.invalidatePage(src)
		delete(d.logMap, lp)
		lat += d.p.PageReadLatency + d.p.PageWriteLatency
	}
	if oldPB >= 0 {
		d.nand.eraseBlock(int(oldPB))
		lat += d.p.BlockEraseLatency
		d.stats.Record(storage.OpErase, int(d.nand.blockBytes()), d.p.BlockEraseLatency)
		d.p2lBlock[oldPB] = -1
		d.freeBlocks = append(d.freeBlocks, int(oldPB))
	}
	d.l2pBlock[lb] = newPB
	d.p2lBlock[newPB] = int32(lb)
	return lat
}

func (d *HybridSSD) takeFree() int {
	if len(d.freeBlocks) == 0 {
		panic("flashsim: hybrid log FTL out of free blocks")
	}
	b := d.freeBlocks[len(d.freeBlocks)-1]
	d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	return b
}

// Trim implements storage.Trimmer: whole covered pages are invalidated in
// both the log and the data block.
func (d *HybridSSD) Trim(off, n int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := storage.CheckRange(d.name, d.Size(), off, int(n)); err != nil {
		return 0, err
	}
	pageSize := int64(d.p.PageSize)
	for pos := off; pos < off+n; {
		lp := pos / pageSize
		po := pos % pageSize
		span := pageSize - po
		if off+n-pos < span {
			span = off + n - pos
		}
		if po == 0 && span == pageSize {
			if phys, ok := d.logMap[lp]; ok {
				d.nand.invalidatePage(phys)
				delete(d.logMap, lp)
			}
			lb := int(lp) / d.p.PagesPerBlock
			if pb := d.l2pBlock[lb]; pb >= 0 {
				d.nand.invalidatePage(pb*int32(d.p.PagesPerBlock) + int32(int(lp)%d.p.PagesPerBlock))
			}
		}
		pos += span
	}
	lat := 10 * time.Microsecond
	d.clock.AdvanceAttr(lat, simclock.CompSSDProgram)
	d.stats.Record(storage.OpTrim, int(n), lat)
	d.emit(storage.Op{Device: d.name, Kind: storage.OpTrim, Offset: off, Len: int(n), Latency: lat})
	return lat, nil
}

func (d *HybridSSD) emit(op storage.Op) {
	if d.onOp != nil {
		d.onOp(op)
	}
}

// Stats returns host-visible operation counters.
func (d *HybridSSD) Stats() storage.DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Wear returns wear and merge counters (GCRuns reports full merges).
func (d *HybridSSD) Wear() WearStats {
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
func (d *HybridSSD) PageSize() int { return d.p.PageSize }

// BlockSize returns the erase-block size in bytes.
func (d *HybridSSD) BlockSize() int64 { return d.nand.blockBytes() }
