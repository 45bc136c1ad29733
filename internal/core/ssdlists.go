package core

import (
	"slices"

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

// listsByTerm returns the term map that reaches the lists of static or of
// dynamic extents.
func (m *Manager) listsByTerm(static bool) map[workload.TermID]*ssdList {
	if static {
		return m.icStatic
	}
	return m.icDyn
}

// unmapListExtent takes an extent out of the L2 list cache: it leaves the
// recency list and every list it still holds is unmapped, counted and
// evented. What becomes of its bytes — freed, trimmed, overwritten in place,
// quarantined — is the caller's business.
func (m *Manager) unmapListExtent(x *listExtent) {
	if e, ok := m.icLRU.Peek(uint64(x.off)); ok && e.Value == x {
		m.icLRU.RemoveEntry(e)
	}
	for _, sl := range x.lists {
		delete(m.listsByTerm(x.static), sl.term)
		m.stats.L2ListEvictions++
		m.emit(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
	}
	x.lists = nil
}

// evictListExtent removes a dynamic extent with the lists it holds, returns
// its bytes to the allocator and trims them on the device.
func (m *Manager) evictListExtent(x *listExtent) {
	m.unmapListExtent(x)
	m.icAlloc.Free(x.off, x.bytes)
	m.ssdTrim(m.icBase()+x.off, x.bytes)
}

// dropSSDList unmaps one dynamic L2 list that was superseded by a longer
// prefix or has expired. A buffered prefix leaves the write buffer. One on
// the SSD leaves dead bytes in its extent — trimming inside an extent would
// only fragment physical blocks — and the extent is freed and trimmed at
// once when this was its last live list.
func (m *Manager) dropSSDList(sl *ssdList) {
	x := sl.ext
	if x != nil && len(x.lists) == 1 {
		m.evictListExtent(x)
		return
	}
	same := func(l *ssdList) bool { return l == sl }
	if x == nil {
		m.listBuf = slices.DeleteFunc(m.listBuf, same)
		m.listBufBytes -= sl.validBytes
	} else {
		x.lists = slices.DeleteFunc(x.lists, same)
	}
	delete(m.icDyn, sl.term)
	m.stats.L2ListEvictions++
	m.emit(Event{Kind: EvListEvict, Term: sl.term, Level: LevelSSD})
}

// quarantineListExtent retires an extent whose device range failed a read or
// a write: every list in it is unmapped (they fall back to the HDD) and the
// whole extent is quarantined instead of freed, and not trimmed — the range
// is abandoned, not recycled. Dynamic and static extents alike; a pin that
// cannot be read is worthless.
func (m *Manager) quarantineListExtent(x *listExtent) {
	m.unmapListExtent(x)
	if x.static {
		m.staticListTaken -= x.bytes
		if m.staticOpen == x {
			m.staticOpen = nil
		}
	}
	m.quarantine(m.icAlloc, x.off, x.bytes)
}

// noteListWrite accounts one successful device write of n bytes into the
// list region carrying lists prefixes of payload bytes in all.
func (m *Manager) noteListWrite(t workload.TermID, n, lists, payload int64) {
	m.stats.ListBytesToSSD += n
	m.stats.ListWritesToSSD++
	m.stats.ListsWrittenToSSD += lists
	m.stats.ListPayloadBytesToSSD += payload
	m.emit(Event{Kind: EvListFlush, Term: t, Bytes: n})
}

// PinList loads the first scBlocks-sized prefix of term t (per Formulas
// 1–2 with the current PU estimate) into the static partition of the L2
// list region: a prefix of a block or more takes SC blocks of its own, a
// shorter one is appended to the open static block (pins are never replaced,
// so they pack without a write buffer, as PinResult fills static RBs slot by
// slot). It returns false when the static budget cannot hold the entry. Only
// meaningful under CBSLRU; see Manager.StaticListBudget.
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
	si := max(int64(float64(total)*m.pu(t)), 1)
	scBytes := m.scBlocks(si, 1) * m.cfg.BlockBytes // si is already the used size; PU applied once
	validBytes := min(si, scBytes, total)

	// The write is the padded extent for a pin with blocks of its own, the
	// bare prefix for one appended to a shared block.
	n := scBytes
	if validBytes < m.cfg.BlockBytes {
		n = validBytes
	}
	x := m.staticOpen
	fresh := n == scBytes || x == nil || x.fill()+n > x.bytes
	if fresh && m.staticListTaken+scBytes > m.StaticListBudget() {
		return false
	}
	buf := m.stagingBuf(n, validBytes)
	if err := m.ix.ReadListRange(t, 0, buf[:validBytes]); err != nil {
		return false
	}
	if fresh {
		off, ok := m.icAlloc.AllocAligned(scBytes, m.cfg.BlockBytes)
		if !ok {
			return false
		}
		x = &listExtent{off: off, bytes: scBytes, static: true}
		m.staticListTaken += scBytes
		if n < scBytes {
			m.staticOpen = x
		}
	}
	sl := &ssdList{term: t, ext: x, off: x.off + x.fill(), validBytes: validBytes}
	if err := m.ssdWrite(buf, m.icBase()+sl.off); err != nil {
		m.quarantineListExtent(x)
		return false
	}
	m.noteListWrite(t, n, 1, validBytes)
	x.lists = append(x.lists, sl)
	m.icStatic[t] = sl
	return true
}

// StaticListBudget returns the byte budget of the static list partition.
func (m *Manager) StaticListBudget() int64 {
	if !m.UsesStaticPartition() || m.icLRU == nil {
		return 0
	}
	return int64(float64(m.cfg.SSDListBytes) * m.cfg.StaticFraction)
}

// StaticPinnedLists returns the pinned term set (for inspection).
func (m *Manager) StaticPinnedLists() []workload.TermID {
	out := make([]workload.TermID, 0, len(m.icStatic))
	for t := range m.icStatic {
		out = append(out, t)
	}
	return out
}
