package core

import (
	"fmt"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// maxL1EntryShare caps a single L1 list entry at this fraction of the list
// cache, so one giant inverted list cannot monopolize (or overflow) L1.
const maxL1EntryShare = 2

// prefixCap is the L1 entry cap: the longest prefix a layout caches.
func (m *Manager) prefixCap() int64 { return m.ic.Capacity() / maxL1EntryShare }

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
	m.emit(Event{Kind: EvListRequest, Term: t, Bytes: int64(len(p))})

	pos := off
	end := off + int64(len(p))

	// Level 1: memory prefix.
	var l1 *memList
	if e, ok := m.ic.Get(uint64(t)); ok {
		l1 = &e.Value // valid while the entry is resident
		if m.listExpired(l1.loadedAt) {
			m.ic.RemoveEntry(e)
			m.freePrefix(l1.prefix)
			m.emit(Event{Kind: EvListExpire, Term: t})
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
			m.emit(Event{Kind: EvListRead, Term: t, Level: LevelMem, Bytes: n})
			pos += n
		}
	}

	// Level 2: the list write buffer or the SSD-cached prefix.
	if pos < end {
		n, sl := m.readL2(EvListRead, t, pos, p[pos-off:])
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
		m.emit(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Bytes: end - pos})
		pos = end
		hddTail = true
	}

	m.lay.fillL1(t, l1, off, p, total, hddTail)
	return nil
}

// readL2 serves the head of p, which starts at list offset pos, from t's L2
// copy — the list write buffer at memory cost, else the SSD — and returns
// the bytes served and the entry they came from (0, nil when none were),
// evented as kind: EvListRead for the engine's request, EvListFill past it. A
// device failure here must not fail the query: the same bytes exist in the
// backing index, so a failed read retires the extent, a breaker-gated one is
// a degraded serve, and either way the caller reads on from the HDD. Only
// bytes actually delivered count as served traffic.
func (m *Manager) readL2(kind EventKind, t workload.TermID, pos int64, p []byte) (int64, *ssdEntry) {
	sl := m.ssdListFor(t)
	if sl == nil || pos >= sl.bytes {
		return 0, nil
	}
	n := min(sl.bytes-pos, int64(len(p)))
	level := LevelSSD
	switch {
	case sl.data != nil:
		copy(p[:n], sl.data[pos:])
		m.memCost(int(n))
		level = LevelMem
	case !m.ssdHealthy():
		m.emit(Event{Kind: EvDegraded, Level: LevelSSD})
		return 0, nil
	default:
		if err := m.ssdRead(p[:n], m.lists.base+sl.off+pos); err != nil {
			// Error accounted by ssdRead; retire the failing extent so it
			// is neither re-read nor re-allocated.
			m.quarantineExtent(&m.lists, sl.ext)
			return 0, nil
		}
	}
	m.emit(Event{Kind: kind, Term: t, Level: level, Bytes: n})
	return n, sl
}

// ssdListFor returns the L2 entry for t: the static pin or the dynamic
// entry, whichever covers more of the list (a dynamic overlay may exceed a
// conservatively sized pin). Looking a dynamic entry up promotes its extent.
func (m *Manager) ssdListFor(t workload.TermID) *ssdEntry {
	static := m.lists.static[uint64(t)]
	dyn := m.lists.dyn[uint64(t)]
	if dyn == nil {
		return static
	}
	if m.listExpired(dyn.loadedAt) {
		m.dropSSDList(dyn)
		m.emit(Event{Kind: EvListExpire, Term: t})
		return static
	}
	if dyn.ext != nil {
		m.lists.lru.Get(uint64(dyn.ext.off)) // promotes
	}
	if static == nil || dyn.bytes > static.bytes {
		return dyn
	}
	return static
}

// onSSDListHit records that an L2 list copy was just read back into memory:
// the layout applies its Fig 9 state change, if it has one. Static entries
// never change state.
func (m *Manager) onSSDListHit(sl *ssdEntry) {
	if sl.ext == nil || !sl.ext.static {
		m.lay.copiedUp(&sl.state)
	}
}

// readThrough reads list bytes from below L1 (L2 copy then index), without
// touching L1 or Fig 9 state, and returns how many leading bytes of p it
// delivered. Used by whole-list fetches and readahead. A failed index read
// leaves the tail unserved and uncounted, and the caller must not cache it.
func (m *Manager) readThrough(t workload.TermID, off int64, p []byte) int64 {
	n, _ := m.readL2(EvListFill, t, off, p)
	if rest := p[n:]; len(rest) > 0 {
		if err := m.ix.ReadListRange(t, off+n, rest); err != nil {
			return n
		}
		m.emit(Event{Kind: EvListFill, Term: t, Level: LevelHDD, Bytes: int64(len(rest))})
	}
	return int64(len(p))
}

// insertL1List makes room and inserts a fresh L1 entry for t, whose prefix
// buffer data is; one that does not get in is freed.
func (m *Manager) insertL1List(t workload.TermID, data []byte) {
	size := int64(len(data))
	if size == 0 || size > m.prefixCap() {
		m.freePrefix(data)
		return
	}
	m.makeRoomIC(size, nil)
	if !m.ic.Fits(size) {
		m.freePrefix(data)
		return
	}
	m.ic.Put(uint64(t), size, memList{term: t, prefix: data, loadedAt: m.clock.Now()})
	m.memCost(int(size))
}

// makeRoomIC evicts L1 list entries until need bytes fit, never evicting
// exclude. Victim choice is the layout's: strict LRU for the baseline, or
// minimum efficiency value within the replace-first window for the
// cost-based policies (Fig 12).
func (m *Manager) makeRoomIC(need int64, exclude *cache.Entry[memList]) {
	for !m.ic.Fits(need) {
		victim := m.lay.chooseL1ListVictim(exclude)
		if victim == nil {
			return
		}
		ml := victim.Value
		m.ic.RemoveEntry(victim)
		m.emit(Event{Kind: EvListEvict, Term: ml.term, Level: LevelMem})
		m.flushListToSSD(ml)
	}
}
