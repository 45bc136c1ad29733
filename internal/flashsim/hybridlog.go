package flashsim

import "time"

// hybridLog is a simplified FAST-style hybrid log-block FTL (§II-A,
// [8][9]): data blocks are block-mapped, while a small pool of page-mapped
// log blocks absorbs overwrites. When the log pool fills, the oldest log
// block is reclaimed by *full merges* of every logical block it holds pages
// for. The paper cites this family as the practical middle ground between
// page- and block-mapped tables.
type hybridLog struct {
	d        *SSD
	l2pBlock blockTable // data blocks

	logBlocks []int   // physical blocks serving as the log, oldest first
	logNext   int     // next free page slot in the newest log block
	logPool   int     // number of log blocks allowed
	logged    []int32 // logical page -> its newest copy when that is in the log, else -1
	logOwner  []int32 // physical page -> logical page appended there; meaningful while the page is valid
}

// newHybridLog gives the log pool half the spare blocks; the rest provide
// merge headroom.
func newHybridLog(d *SSD) ftl {
	return &hybridLog{
		d:        d,
		l2pBlock: unmapped(d.p.ExportedBlocks),
		logPool:  d.p.SpareBlocks / 2,
		logged:   unmapped(d.logicalPages),
		logOwner: make([]int32, len(d.nand.pageState)),
	}
}

// lookup prefers the log copy, then the data block.
func (h *hybridLog) lookup(lp int) int32 {
	if phys := h.logged[lp]; phys >= 0 {
		return phys
	}
	if phys := h.l2pBlock.home(lp, h.d.p.PagesPerBlock); phys >= 0 && h.d.nand.pageState[phys] == pageValid {
		return phys
	}
	return -1
}

func (h *hybridLog) program(lp int, content []byte) time.Duration {
	d, ppb := h.d, h.d.p.PagesPerBlock
	if h.l2pBlock[lp/ppb] < 0 {
		h.l2pBlock[lp/ppb] = int32(d.takeFree())
	}
	// Fast path: the slot in the data block is still free (first write or
	// strictly sequential fill) and the log holds no copy that would shadow
	// it — a merge set off by a write to a trimmed page leaves exactly that:
	// a rebuilt data block with the slot free, and the page in the log.
	if phys := h.l2pBlock.home(lp, ppb); h.logged[lp] < 0 && d.nand.pageState[phys] == pageFree {
		d.nand.programPage(phys, content)
		return d.p.PageWriteLatency
	}

	// Overwrite: append to the log. The copy this supersedes — in the log,
	// else at home — goes stale; it is looked up after making log space,
	// because a merge there may have moved it.
	lat := h.ensureLogSpace()
	phys := int32(h.logBlocks[len(h.logBlocks)-1]*ppb + h.logNext)
	h.logNext++
	if old := h.logged[lp]; old >= 0 {
		d.nand.invalidatePage(old)
	} else {
		d.nand.invalidatePage(h.l2pBlock.home(lp, ppb))
	}
	d.nand.programPage(phys, content)
	h.logged[lp] = phys
	h.logOwner[phys] = int32(lp)
	return lat + d.p.PageWriteLatency
}

// ensureLogSpace opens a new log block, merging the oldest when the pool
// is exhausted.
func (h *hybridLog) ensureLogSpace() time.Duration {
	if len(h.logBlocks) > 0 && h.logNext < h.d.p.PagesPerBlock {
		return 0
	}
	var lat time.Duration
	if len(h.logBlocks) >= h.logPool {
		lat = h.mergeOldestLog()
	}
	h.logBlocks = append(h.logBlocks, h.d.takeFree())
	h.logNext = 0
	return lat
}

// mergeOldestLog reclaims the oldest log block: walking its pages in order,
// it full-merges the logical block of each page that is still valid. A
// full merge invalidates every log page of its block, so each logical block
// is merged once — in an order the page walk fixes, which is what makes
// physical placement (and so per-block wear) repeat from run to run.
func (h *hybridLog) mergeOldestLog() time.Duration {
	victim, ppb := h.logBlocks[0], h.d.p.PagesPerBlock
	h.logBlocks = h.logBlocks[1:]
	var lat time.Duration
	for phys := victim * ppb; phys < (victim+1)*ppb; phys++ {
		if h.d.nand.pageState[phys] == pageValid {
			lat += h.fullMerge(int(h.logOwner[phys]) / ppb)
		}
	}
	return lat + h.d.erase(victim)
}

// fullMerge rebuilds logical block lb from its newest copies (log or data
// block) into a fresh physical block and erases its old data block — lb
// has one: it was mapped before any of its pages could reach the log.
func (h *hybridLog) fullMerge(lb int) time.Duration {
	d, ppb := h.d, h.d.p.PagesPerBlock
	d.gcRuns++
	var lat time.Duration
	newPB := d.takeFree()
	for slot := 0; slot < ppb; slot++ {
		lp := lb*ppb + slot
		src := h.lookup(lp)
		if src < 0 {
			continue
		}
		d.nand.copyPage(src, int32(newPB*ppb+slot))
		d.nand.invalidatePage(src)
		h.logged[lp] = -1
		lat += d.p.PageReadLatency + d.p.PageWriteLatency
	}
	lat += d.erase(int(h.l2pBlock[lb]))
	h.l2pBlock[lb] = int32(newPB)
	return lat
}

// discard invalidates lp in both the log and the data block.
func (h *hybridLog) discard(lp int) time.Duration {
	if phys := h.logged[lp]; phys >= 0 {
		h.d.nand.invalidatePage(phys)
		h.logged[lp] = -1
	}
	if phys := h.l2pBlock.home(lp, h.d.p.PagesPerBlock); phys >= 0 {
		h.d.nand.invalidatePage(phys)
	}
	return 0
}
