package core

import (
	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// entryLayout is the LRU baseline (§VII): L1 caches whole inverted lists, and
// every L1 eviction is written to the SSD at once as one entry, at whatever
// unaligned offset the allocator yields, evicting strictly by recency at both
// levels. No selection, no write buffer, no replaceable state, no trim — the
// write pattern the paper blames for block erasures.
type entryLayout struct{ m *Manager }

// chooseL1ListVictim picks the least-recently-used entry, skipping exclude.
func (l entryLayout) chooseL1ListVictim(exclude *cache.Entry[*memList]) *cache.Entry[*memList] {
	var v *cache.Entry[*memList]
	l.m.ic.Ascend(func(e *cache.Entry[*memList]) bool {
		if e != exclude {
			v = e
			return false
		}
		return true
	})
	return v
}

// fillL1 caches the whole list (classic list caching, the baseline's
// capacity handicap the paper calls out in §VII-A).
func (l entryLayout) fillL1(t workload.TermID, l1 *memList, off int64, p []byte, total int64, hddTail bool) {
	m := l.m
	if l1 != nil {
		return // whole list already resident
	}
	if total > m.ic.Capacity()/maxL1EntryShare {
		m.stats.ListsTooLargeForL1++
		return
	}
	whole := make([]byte, total)
	// Reuse the bytes already in hand; fetch the rest from the
	// hierarchy below L1 (SSD prefix if cached, index otherwise). A list
	// that did not arrive whole is not cached.
	copy(whole[off:], p)
	end := off + int64(len(p))
	if (off > 0 && m.readThrough(t, 0, whole[:off]) < off) ||
		(end < total && m.readThrough(t, end, whole[end:]) < total-end) {
		return
	}
	m.insertL1List(t, whole)
}

// flushList writes the entire list to the SSD at byte granularity wherever
// the allocator finds room, rewriting unconditionally.
func (l entryLayout) flushList(ml *memList) {
	m := l.m
	size := int64(len(ml.prefix))
	if size == 0 || size > m.icLRU.Capacity() {
		m.stats.ListsDiscarded++
		return
	}
	if old := m.icDyn[ml.term]; old != nil {
		m.freeLRUList(old.ext) // the stale copy
	}
	var off int64
	for {
		var ok bool
		if off, ok = m.icAlloc.Alloc(size); ok {
			break
		}
		lru := m.icLRU.LRUEntry()
		if lru == nil {
			m.stats.ListsDiscarded++
			return
		}
		m.freeLRUList(lru.Value)
	}
	if err := m.ssdWrite(ml.prefix, m.icBase()+off); err != nil {
		m.quarantine(m.icAlloc, off, size)
		m.stats.ListsDiscarded++
		return
	}
	m.noteListWrite(ml.term, size, 1, size)
	// Baseline entries are single-list extents, as its results are
	// single-slot pseudo-RBs, so the same bookkeeping serves both layouts.
	x := &listExtent{off: off, bytes: size}
	sl := &ssdList{term: ml.term, ext: x, off: off, validBytes: size, loadedAt: ml.loadedAt}
	x.lists = []*ssdList{sl}
	m.icDyn[sl.term] = sl
	m.icLRU.Put(uint64(off), size, x)
}

// freeLRUList releases a baseline L2 list entry: unlike evictListExtent, the
// extent goes back to the allocator without a trim.
func (m *Manager) freeLRUList(x *listExtent) {
	m.unmapListExtent(x)
	m.icAlloc.Free(x.off, x.bytes)
}

// evictResult writes the 20 KB entry immediately at whatever unaligned
// offset the allocator yields — the small-random-write storm of §VI-C1.
func (l entryLayout) evictResult(qid uint64, mr *memResult) {
	m := l.m
	defer m.freeEntry(mr.data) // written or lost, memory is done with it
	size := int64(len(mr.data))
	if !m.ssdHealthy() {
		m.stats.ResultsDropped++
		return
	}
	if old, ok := m.resultLoc[qid]; ok {
		m.freeLRUResult(old)
	}
	var off int64
	for {
		var ok bool
		if off, ok = m.rcAlloc.Alloc(size); ok {
			break
		}
		e := m.rbLRU.LRUEntry()
		if e == nil {
			m.stats.ResultsDropped++
			return
		}
		m.freeLRUResult(e.Value.slots[0])
	}
	// Baseline entries are modelled as single-slot pseudo-RBs so the same
	// bookkeeping serves both layouts.
	rb := &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, 1)}
	m.nextRB++
	loc := &ssdResult{qid: qid, rb: rb, slot: 0, loadedAt: m.clock.Now()}
	rb.slots[0] = loc
	if err := m.ssdWrite(mr.data, off); err != nil {
		// Accounted loss: the entry is gone and the failed range is retired.
		m.quarantine(m.rcAlloc, off, size)
		m.stats.ResultsDropped++
		return
	}
	m.stats.ResultBytesToSSD += size
	m.emit(Event{Kind: EvResultFlush, Bytes: size})
	m.resultLoc[qid] = loc
	m.rbLRU.Put(rb.num, size, rb)
}

// freeLRUResult releases a baseline pseudo-RB.
func (m *Manager) freeLRUResult(loc *ssdResult) {
	m.unmapRB(loc.rb)
	m.rcAlloc.Free(loc.rb.off, m.cfg.ResultEntryBytes)
	m.stats.L2ResultEvictions++
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// copiedUp is a no-op: baseline SSD entries have no replaceable state.
func (entryLayout) copiedUp(*entryState) {}

// expireResult releases the whole pseudo-RB.
func (l entryLayout) expireResult(loc *ssdResult) { l.m.freeLRUResult(loc) }

// quarantineResult retires a single-entry pseudo-RB whose device range
// failed: the extent is quarantined (never re-allocated) instead of freed.
func (l entryLayout) quarantineResult(loc *ssdResult) {
	m := l.m
	m.unmapRB(loc.rb)
	m.quarantine(m.rcAlloc, loc.rb.off, m.cfg.ResultEntryBytes)
	m.stats.L2ResultEvictions++
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// rbExtentBytes is one result entry: a pseudo-RB holds exactly one.
func (l entryLayout) rbExtentBytes() int64 { return l.m.cfg.ResultEntryBytes }

// checkListExtent accepts any extent: the baseline writes unaligned.
func (entryLayout) checkListExtent(*listExtent) error { return nil }
