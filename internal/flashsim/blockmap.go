package flashsim

import "time"

// blockMap is a block-mapped FTL (§II-A, [7]): the mapping table holds one
// entry per erase block instead of per page, trading SRAM footprint for
// write behaviour. A logical page must live at its fixed offset inside the
// mapped physical block, so overwriting any page forces a block merge —
// copy every other valid page into a fresh block, then erase the old one.
// Random small writes are catastrophic, which is exactly why the paper
// baselines on the page-mapped ideal and why log-structured cache
// placement matters.
type blockMap struct {
	d        *SSD
	l2pBlock blockTable
}

func newBlockMap(d *SSD) ftl {
	return &blockMap{d: d, l2pBlock: unmapped(d.p.ExportedBlocks)}
}

func (m *blockMap) lookup(lp int) int32 {
	if phys := m.l2pBlock.home(lp, m.d.p.PagesPerBlock); phys >= 0 && m.d.nand.pageState[phys] == pageValid {
		return phys
	}
	return -1
}

func (m *blockMap) program(lp int, content []byte) time.Duration {
	d, ppb := m.d, m.d.p.PagesPerBlock
	if m.l2pBlock[lp/ppb] < 0 {
		// First write to this logical block: map a free block.
		m.l2pBlock[lp/ppb] = int32(d.takeFree())
	}
	if phys := m.l2pBlock.home(lp, ppb); d.nand.pageState[phys] == pageFree {
		d.nand.programPage(phys, content)
		return TablePageWrite
	}
	// The slot is taken: merge into a fresh block, substituting the new
	// content for the overwritten page.
	return m.merge(lp/ppb, lp%ppb, content)
}

// merge copies the logical block's valid pages into a fresh physical
// block, replacing slot with content, then erases the old block.
func (m *blockMap) merge(lb, slot int, content []byte) time.Duration {
	d, ppb := m.d, int32(m.d.p.PagesPerBlock)
	d.gcRuns++
	oldPB := m.l2pBlock[lb]
	newPB := int32(d.takeFree())
	var lat time.Duration
	for i := int32(0); i < ppb; i++ {
		src, dst := oldPB*ppb+i, newPB*ppb+i
		if int(i) == slot {
			d.nand.invalidatePage(src) // first, so the program can take its buffer
			d.nand.programPage(dst, content)
			lat += TablePageWrite
		} else if d.nand.pageState[src] == pageValid {
			d.nand.copyPage(src, dst)
			lat += TablePageRead + TablePageWrite
		}
	}
	m.l2pBlock[lb] = newPB
	return lat + d.erase(int(oldPB))
}

// discard invalidates lp's page. Block mapping cannot reclaim single pages,
// but a block left with no valid page is unmapped and erased eagerly.
func (m *blockMap) discard(lp int) time.Duration {
	phys := m.l2pBlock.home(lp, m.d.p.PagesPerBlock)
	if phys < 0 {
		return 0
	}
	m.d.nand.invalidatePage(phys)
	pb := m.d.nand.blockOf(phys)
	if m.d.nand.blockValid[pb] > 0 {
		return 0
	}
	m.l2pBlock[lp/m.d.p.PagesPerBlock] = -1
	return m.d.erase(pb)
}
