package core

import (
	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// icBase returns the device offset of the inverted-list region of the SSD
// cache file (it follows the result region).
func (m *Manager) icBase() int64 { return m.cfg.SSDResultBytes }

// flushListToSSD handles an inverted list evicted from L1 (Fig 5): unless
// it is stale or the L2 tier is absent or failing, the layout selects,
// places and writes it in the L2 list region.
func (m *Manager) flushListToSSD(ml *memList) {
	if m.listExpired(ml.loadedAt) {
		m.stats.ListsExpired++
		return
	}
	if m.icLRU == nil {
		m.stats.ListsDiscarded++
		return
	}
	if !m.ssdHealthy() {
		// Breaker open: discard instead of writing into a failing device.
		// The list is still fully readable from the backing index.
		m.stats.ListsDiscarded++
		return
	}
	m.lay.flushList(ml)
}

// evictSSDList removes a dynamic L2 list entry, returns its extent to the
// allocator and trims it on the device.
func (m *Manager) evictSSDList(e *cache.Entry[*ssdList]) {
	sl := e.Value
	m.icLRU.RemoveEntry(e)
	m.icAlloc.Free(sl.off, sl.blockBytes)
	m.ssdTrim(m.icBase()+sl.off, sl.blockBytes)
	m.stats.L2ListEvictions++
	m.emit(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
}

// quarantineSSDList retires an L2 list entry whose device range failed:
// the entry is unmapped and its extent quarantined instead of freed (and
// not trimmed — the range is abandoned, not recycled). Works for both
// dynamic entries and static pins; a pin that cannot be read is worthless.
func (m *Manager) quarantineSSDList(sl *ssdList) {
	if sl.static {
		delete(m.icStatic, sl.term)
	} else if e, ok := m.icLRU.Peek(uint64(sl.term)); ok && e.Value == sl {
		m.icLRU.RemoveEntry(e)
	}
	m.quarantine(m.icAlloc, sl.off, sl.blockBytes)
	m.stats.L2ListEvictions++
	m.emit(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
}

// PinList loads the first scBlocks-sized prefix of term t (per Formulas
// 1–2 with the current PU estimate) into the static partition of the L2
// list region. It returns false when the static budget cannot hold the
// entry. Only meaningful under CBSLRU; see Manager.StaticListBudget.
func (m *Manager) PinList(t workload.TermID) bool {
	if !m.UsesStaticPartition() || m.icLRU == nil {
		return false
	}
	if _, ok := m.icStatic[t]; ok {
		return true
	}
	if !m.ssdHealthy() {
		return false
	}
	total := m.ix.ListBytes(t)
	si := int64(float64(total) * m.pu(t))
	if si < 1 {
		si = 1
	}
	sc := m.scBlocks(si, 1) // si is already the used size; PU applied once
	scBytes := sc * m.cfg.BlockBytes
	if m.staticListBytes()+scBytes > m.StaticListBudget() {
		return false
	}
	off, ok := m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes)
	if !ok {
		return false
	}
	validBytes := si
	if validBytes > scBytes {
		validBytes = scBytes
	}
	if validBytes > total {
		validBytes = total
	}
	buf := m.stagingBuf(scBytes, validBytes)
	if err := m.ix.ReadListRange(t, 0, buf[:validBytes]); err != nil {
		m.icAlloc.Free(off, scBytes)
		return false
	}
	if err := m.ssdWrite(buf, m.icBase()+off); err != nil {
		m.quarantine(m.icAlloc, off, scBytes)
		return false
	}
	m.stats.ListBytesToSSD += scBytes
	m.stats.ListWritesToSSD++
	m.emit(Event{Kind: EvListFlush, Term: t, Bytes: scBytes})
	m.icStatic[t] = &ssdList{
		term: t, off: off, blockBytes: scBytes, validBytes: validBytes, static: true,
	}
	return true
}

// StaticListBudget returns the byte budget of the static list partition.
func (m *Manager) StaticListBudget() int64 {
	if !m.UsesStaticPartition() || m.icLRU == nil {
		return 0
	}
	return int64(float64(m.cfg.SSDListBytes) * m.cfg.StaticFraction)
}

func (m *Manager) staticListBytes() int64 {
	var n int64
	for _, sl := range m.icStatic {
		n += sl.blockBytes
	}
	return n
}

// StaticPinnedLists returns the pinned term set (for inspection).
func (m *Manager) StaticPinnedLists() []workload.TermID {
	out := make([]workload.TermID, 0, len(m.icStatic))
	for t := range m.icStatic {
		out = append(out, t)
	}
	return out
}
