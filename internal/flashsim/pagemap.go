package flashsim

import "time"

// pageMap is the ideal page-mapped FTL the paper baselines on (§II-A,
// Table III): one table entry per page, every write programmed at a log
// frontier, and greedy garbage collection — when free blocks run low, the
// block with the fewest valid pages has them relocated to the frontier and
// is erased.
type pageMap struct {
	d   *SSD
	l2p []int32 // logical page -> physical page, -1 unmapped
	p2l []int32 // physical page -> logical page; meaningful while the page is valid

	active   int // block accepting programs, -1 none
	next     int // next free page within active
	lowWater int // collect garbage when this few blocks are free: max(2, SpareBlocks/2)
}

func newPageMap(d *SSD) ftl {
	return &pageMap{
		d:        d,
		l2p:      unmapped(d.logicalPages),
		p2l:      make([]int32, len(d.nand.pageState)),
		active:   -1,
		lowWater: max(2, d.p.SpareBlocks/2),
	}
}

func (m *pageMap) lookup(lp int) int32 { return m.l2p[lp] }

func (m *pageMap) program(lp int, content []byte) time.Duration {
	var lat time.Duration
	if m.frontierFull() {
		if len(m.d.freeBlocks) <= m.lowWater {
			lat = m.collectGarbage()
		}
		// Always a fresh block, even when the collection just opened one for
		// relocated pages: that block is left part-filled, holding only
		// relocated (cold) pages, until it is a victim itself.
		m.openBlock()
	}
	// Looked up only now: the collection above may have moved the old copy.
	// It is dropped first, so the program can take the buffer it frees.
	if old := m.l2p[lp]; old >= 0 {
		m.d.nand.invalidatePage(old)
	}
	phys := m.nextPage()
	m.d.nand.programPage(phys, content)
	m.l2p[lp] = phys
	m.p2l[phys] = int32(lp)
	return lat + TablePageWrite
}

func (m *pageMap) discard(lp int) time.Duration {
	if phys := m.l2p[lp]; phys >= 0 {
		m.d.nand.invalidatePage(phys)
		m.l2p[lp] = -1
	}
	return 0
}

func (m *pageMap) frontierFull() bool {
	return m.active < 0 || m.next >= m.d.p.PagesPerBlock
}

// openBlock makes a fresh free block the log frontier.
func (m *pageMap) openBlock() { m.active, m.next = m.d.takeFree(), 0 }

// nextPage takes the frontier's next free page.
func (m *pageMap) nextPage() int32 {
	m.next++
	return int32(m.active*m.d.p.PagesPerBlock + m.next - 1)
}

// collectGarbage reclaims blocks until the free count exceeds the low-water
// mark. Victims are chosen greedily (fewest valid pages).
func (m *pageMap) collectGarbage() time.Duration {
	var lat time.Duration
	for len(m.d.freeBlocks) <= m.lowWater {
		victim := m.pickVictim()
		if victim < 0 {
			break // nothing reclaimable; drive is genuinely full of valid data
		}
		m.d.gcRuns++
		lat += m.relocateAndErase(victim)
	}
	return lat
}

// pickVictim returns the programmed block off the frontier with the fewest
// valid pages, or -1 when none has a reclaimable (non-valid) page. A block
// leaves the free stack to have a page programmed at once and returns to it
// as it is erased, so off the frontier "all pages free" means "on the free
// stack" — no second record of the stack's contents is kept.
func (m *pageMap) pickVictim() int {
	nand, ppb := m.d.nand, m.d.p.PagesPerBlock
	best, bestValid := -1, ppb+1
	for b, valid := range nand.blockValid {
		if b == m.active || nand.blockFree[b] == ppb {
			continue
		}
		if valid < bestValid {
			best, bestValid = b, valid
		}
	}
	if bestValid == ppb {
		return -1 // every candidate is fully valid; erasing gains nothing
	}
	return best
}

// relocateAndErase moves victim's valid pages to the frontier and erases
// it. The frontier can never be the victim: the victim is not the active
// block, and if the active block fills mid-relocation a fresh free block
// is opened (one exists because GC only starts with at least one free
// block, and each erased victim adds another).
func (m *pageMap) relocateAndErase(victim int) time.Duration {
	var lat time.Duration
	nand, ppb := m.d.nand, m.d.p.PagesPerBlock
	for phys := int32(victim * ppb); phys < int32((victim+1)*ppb); phys++ {
		if nand.pageState[phys] != pageValid {
			continue
		}
		if m.frontierFull() {
			m.openBlock()
		}
		dst := m.nextPage()
		nand.copyPage(phys, dst)
		lp := m.p2l[phys]
		m.p2l[dst] = lp
		m.l2p[lp] = dst
		lat += TablePageRead + TablePageWrite
	}
	return lat + m.d.erase(victim)
}
