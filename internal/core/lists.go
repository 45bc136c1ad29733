package core

import (
	"fmt"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// maxL1EntryShare caps a single L1 list entry at this fraction of the list
// cache, so one giant inverted list cannot monopolize (or overflow) L1.
const maxL1EntryShare = 2

// ReadListRange implements engine.ListSource: it serves list bytes from the
// memory cache, then the SSD cache, then the backing index, charging each
// level's simulated cost, and caches what it read in the layout's unit. This
// is the paper's Query Management path for inverted lists.
func (m *Manager) ReadListRange(t workload.TermID, off int64, p []byte) error {
	total := m.ix.ListBytes(t)
	if off < 0 || off+int64(len(p)) > total {
		return fmt.Errorf("core: term %d range [%d,+%d) outside %d-byte list",
			t, off, len(p), total)
	}
	m.noteTermAccess(t)
	m.stats.ListBytesRequested += int64(len(p))

	pos := off
	end := off + int64(len(p))

	// Level 1: memory prefix.
	var l1 *memList
	if e, ok := m.ic.Get(uint64(t)); ok {
		l1 = e.Value
		if m.listExpired(l1.loadedAt) {
			m.ic.RemoveEntry(e)
			m.stats.ListsExpired++
			l1 = nil
		}
	}
	if l1 != nil {
		if pos < int64(len(l1.prefix)) {
			n := int64(len(l1.prefix)) - pos
			if end-pos < n {
				n = end - pos
			}
			copy(p[:n], l1.prefix[pos:pos+n])
			m.memCost(int(n))
			m.noteTermSource(t, srcMem)
			m.stats.ListBytesFromMem += n
			m.emit(Event{Kind: EvListRead, Term: t, Level: LevelMem, Bytes: n})
			pos += n
		}
	}

	// Level 2: the list write buffer or the SSD-cached prefix.
	if pos < end {
		n, sl := m.readL2(t, pos, p[pos-off:])
		pos += n
		if sl != nil {
			m.onSSDListHit(sl)
		}
	}

	// Backing store: the on-disk index.
	hddTail := false
	if pos < end {
		if err := m.ix.ReadListRange(t, pos, p[pos-off:]); err != nil {
			return fmt.Errorf("core: index read: %w", err)
		}
		m.noteTermSource(t, srcHDD)
		m.stats.ListBytesFromHDD += end - pos
		m.stats.ListReqBytesFromHDD += end - pos
		m.emit(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Bytes: end - pos})
		pos = end
		hddTail = true
	}

	m.lay.fillL1(t, l1, off, p, total, hddTail)
	return nil
}

// readL2 serves the head of p, which starts at list offset pos, from t's L2
// copy — the list write buffer at memory cost, else the SSD — and returns
// the bytes served and the entry they came from (0, nil when none were). A
// device failure here must not fail the query: the same bytes exist in the
// backing index, so a failed read retires the extent, a breaker-gated one is
// a degraded serve, and either way the caller reads on from the HDD. Only
// bytes actually delivered count as served traffic.
func (m *Manager) readL2(t workload.TermID, pos int64, p []byte) (int64, *ssdList) {
	sl := m.ssdListFor(t)
	if sl == nil || pos >= sl.validBytes {
		return 0, nil
	}
	n := min(sl.validBytes-pos, int64(len(p)))
	level, src := LevelSSD, srcSSD
	switch {
	case sl.data != nil:
		copy(p[:n], sl.data[pos:])
		m.memCost(int(n))
		level, src = LevelMem, srcMem
		m.stats.ListBytesFromMem += n
	case !m.ssdHealthy():
		m.noteDegraded()
		return 0, nil
	default:
		if err := m.ssdRead(p[:n], m.icBase()+sl.off+pos); err != nil {
			// Error accounted by ssdRead; retire the failing extent so it
			// is neither re-read nor re-allocated.
			m.quarantineListExtent(sl.ext)
			return 0, nil
		}
		m.stats.ListBytesFromSSD += n
	}
	m.noteTermSource(t, src)
	m.emit(Event{Kind: EvListRead, Term: t, Level: level, Bytes: n})
	return n, sl
}

// ssdListFor returns the L2 entry for t: the static pin or the dynamic
// entry, whichever covers more of the list (a dynamic overlay may exceed a
// conservatively sized pin). Looking a dynamic entry up promotes its extent.
func (m *Manager) ssdListFor(t workload.TermID) *ssdList {
	static := m.icStatic[t]
	dyn := m.icDyn[t]
	if dyn == nil {
		return static
	}
	if m.listExpired(dyn.loadedAt) {
		m.dropSSDList(dyn)
		m.stats.ListsExpired++
		return static
	}
	if dyn.ext != nil {
		m.icLRU.Get(uint64(dyn.ext.off)) // promotes
	}
	if static == nil || dyn.validBytes > static.validBytes {
		return dyn
	}
	return static
}

// onSSDListHit records that an L2 list copy was just read back into memory:
// the layout applies its Fig 9 state change, if it has one. Static entries
// never change state.
func (m *Manager) onSSDListHit(sl *ssdList) {
	if sl.ext == nil || !sl.ext.static {
		m.lay.copiedUp(&sl.state)
	}
}

// readThrough reads list bytes from below L1 (L2 copy then index), without
// touching L1 or Fig 9 state, and returns how many leading bytes of p it
// delivered. Used by whole-list fetches and readahead. A failed index read
// leaves the tail unserved and uncounted, and the caller must not cache it.
func (m *Manager) readThrough(t workload.TermID, off int64, p []byte) int64 {
	n, _ := m.readL2(t, off, p)
	if rest := p[n:]; len(rest) > 0 {
		if err := m.ix.ReadListRange(t, off+n, rest); err != nil {
			return n
		}
		m.stats.ListBytesFromHDD += int64(len(rest))
		m.noteTermSource(t, srcHDD)
		m.emit(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Bytes: int64(len(rest))})
	}
	return int64(len(p))
}

// insertL1List makes room and inserts a fresh L1 entry for t.
func (m *Manager) insertL1List(t workload.TermID, data []byte) {
	size := int64(len(data))
	if size == 0 || size > m.ic.Capacity()/maxL1EntryShare {
		return
	}
	m.makeRoomIC(size, nil)
	if !m.ic.Fits(size) {
		return
	}
	m.ic.Put(uint64(t), size, &memList{term: t, prefix: data, loadedAt: m.clock.Now()})
	m.memCost(int(size))
}

// makeRoomIC evicts L1 list entries until need bytes fit, never evicting
// exclude. Victim choice is the layout's: strict LRU for the baseline, or
// minimum efficiency value within the replace-first window for the
// cost-based policies (Fig 12).
func (m *Manager) makeRoomIC(need int64, exclude *cache.Entry[*memList]) {
	for !m.ic.Fits(need) {
		victim := m.lay.chooseL1ListVictim(exclude)
		if victim == nil {
			return
		}
		ml := victim.Value
		m.ic.RemoveEntry(victim)
		m.stats.L1ListEvictions++
		m.emit(Event{Kind: EvListEvict, Term: ml.term, Level: LevelMem})
		m.flushListToSSD(ml)
	}
}
