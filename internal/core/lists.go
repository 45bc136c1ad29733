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
// level's simulated cost, and caches what it read according to the active
// policy. This is the paper's Query Management path for inverted lists.
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

	// Level 2: SSD-cached prefix. A device failure here must not fail the
	// query — the same bytes exist in the backing index, so a failed (or
	// breaker-gated) SSD read simply leaves pos where it is and the next
	// stage serves the remainder from the HDD.
	if pos < end {
		if sl := m.ssdListFor(t); sl != nil && pos < sl.validBytes {
			switch {
			case !m.ssdHealthy():
				m.noteDegraded()
			default:
				n := sl.validBytes - pos
				if end-pos < n {
					n = end - pos
				}
				if err := m.ssdRead(p[pos-off:pos-off+n], m.icBase()+sl.off+pos); err != nil {
					// Error accounted by ssdRead; retire the failing extent
					// so it is neither re-read nor re-allocated.
					m.quarantineSSDList(sl)
				} else {
					m.noteTermSource(t, srcSSD)
					m.stats.ListBytesFromSSD += n
					m.emit(Event{Kind: EvListRead, Term: t, Level: LevelSSD, Bytes: n})
					pos += n
					m.onSSDListHit(sl)
				}
			}
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

	m.fillL1List(t, l1, off, p, total, hddTail)
	return nil
}

// ssdListFor returns the L2 entry for t: the static pin or the dynamic
// entry, whichever covers more of the list (a dynamic overlay may exceed a
// conservatively sized pin). Looking a dynamic entry up promotes it.
func (m *Manager) ssdListFor(t workload.TermID) *ssdList {
	var static *ssdList
	if sl, ok := m.icStatic[t]; ok {
		static = sl
	}
	if m.icLRU == nil {
		return static
	}
	if e, ok := m.icLRU.Get(uint64(t)); ok {
		dyn := e.Value
		if m.listExpired(dyn.loadedAt) {
			m.evictSSDList(e)
			m.stats.ListsExpired++
		} else if static == nil || dyn.validBytes > static.validBytes {
			return dyn
		}
	}
	return static
}

// onSSDListHit records that an SSD list extent was just read back into
// memory: the layout applies its Fig 9 state change, if it has one. Static
// entries never change state.
func (m *Manager) onSSDListHit(sl *ssdList) {
	if !sl.static {
		m.lay.copiedUp(&sl.state)
	}
}

// fillL1List caches the bytes just served in L1, in the layout's caching
// unit, once the policy's first-touch gate lets the list in.
func (m *Manager) fillL1List(t workload.TermID, l1 *memList, off int64, p []byte, total int64, hddTail bool) {
	// First-touch admission gate (the bidirectional filter's upward
	// direction); extensions of a resident prefix are always allowed.
	if l1 == nil && !m.repl.AdmitNewL1List(t) {
		return
	}
	m.lay.fillL1(t, l1, off, p, total, hddTail)
}

// readThrough reads list bytes from below L1 (SSD prefix then index),
// without touching L1 state. Used by whole-list fetches. An SSD failure
// falls through to the index, and stats/events are only recorded for bytes
// actually delivered — a failed read must not count as served traffic.
func (m *Manager) readThrough(t workload.TermID, off int64, p []byte) {
	pos := off
	end := off + int64(len(p))
	if sl := m.ssdListFor(t); sl != nil && pos < sl.validBytes {
		switch {
		case !m.ssdHealthy():
			m.noteDegraded()
		default:
			n := sl.validBytes - pos
			if end-pos < n {
				n = end - pos
			}
			if err := m.ssdRead(p[:n], m.icBase()+sl.off+pos); err != nil {
				m.quarantineSSDList(sl)
			} else {
				m.stats.ListBytesFromSSD += n
				m.noteTermSource(t, srcSSD)
				m.emit(Event{Kind: EvListRead, Term: t, Level: LevelSSD, Bytes: n})
				pos += n
			}
		}
	}
	if pos < end {
		if err := m.ix.ReadListRange(t, pos, p[pos-off:]); err == nil {
			m.stats.ListBytesFromHDD += end - pos
			m.noteTermSource(t, srcHDD)
			m.emit(Event{Kind: EvListRead, Term: t, Level: LevelHDD, Bytes: end - pos})
		}
	}
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
// exclude. Victim choice is the policy's: strict LRU for the baseline, or
// minimum efficiency value within the replace-first window for the
// cost-based policies (Fig 12).
func (m *Manager) makeRoomIC(need int64, exclude *cache.Entry[*memList]) {
	for !m.ic.Fits(need) {
		victim := m.repl.ChooseL1ListVictim(exclude)
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
