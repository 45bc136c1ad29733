package core

import (
	"time"

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
func (l entryLayout) chooseL1ListVictim(exclude *cache.Entry[memList]) *cache.Entry[memList] {
	var v *cache.Entry[memList]
	l.m.ic.Ascend(func(e *cache.Entry[memList]) bool {
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
	if total > m.prefixCap() {
		m.emit(Event{Kind: EvListTooLarge, Term: t})
		return
	}
	whole := m.prefixBuf(total)
	// Reuse the bytes already in hand; fetch the rest from the
	// hierarchy below L1 (SSD prefix if cached, index otherwise). A list
	// that did not arrive whole is not cached.
	copy(whole[off:], p)
	end := off + int64(len(p))
	if (off > 0 && m.readThrough(t, 0, whole[:off]) < off) ||
		(end < total && m.readThrough(t, end, whole[end:]) < total-end) {
		m.freePrefix(whole)
		return
	}
	m.insertL1List(t, whole)
}

// flushList writes the entire list to the SSD at byte granularity wherever
// the allocator finds room, rewriting unconditionally.
func (l entryLayout) flushList(ml memList) {
	m := l.m
	defer m.freePrefix(ml.prefix) // written or lost, memory is done with it
	if !l.write(&m.lists, uint64(ml.term), ml.prefix, ml.loadedAt) {
		m.emit(Event{Kind: EvListDiscard, Term: ml.term, N: 1})
		return
	}
	size := int64(len(ml.prefix))
	m.emit(Event{Kind: EvListFlush, Term: ml.term, Bytes: size, N: 1, Part: size})
}

// evictResult writes the 20 KB entry immediately at whatever unaligned
// offset the allocator yields — the small-random-write storm of §VI-C1.
func (l entryLayout) evictResult(qid uint64, mr *memResult) {
	m := l.m
	defer m.freeEntry(mr.data) // written or lost, memory is done with it
	if !m.ssdHealthy() || !l.write(&m.results, qid, mr.data, m.clock.Now()) {
		m.emit(Event{Kind: EvResultDrop, N: 1})
		return
	}
	m.emit(Event{Kind: EvResultFlush, Bytes: int64(len(mr.data))})
}

// write stores p, key's content as of loadedAt, in region r as an extent of
// its own: the key's old copy is freed, then the least recent extents until
// the allocator finds room anywhere. It reports whether p is on the SSD; the
// range of a failed write is quarantined.
func (l entryLayout) write(r *region, key uint64, p []byte, loadedAt time.Duration) bool {
	m := l.m
	size := int64(len(p))
	if size == 0 || size > r.lru.Capacity() {
		return false
	}
	if old := r.dyn[key]; old != nil {
		m.drop(r, old.ext, false) // the stale copy
	}
	var off int64
	for {
		var ok bool
		if off, ok = r.alloc.Alloc(size); ok {
			break
		}
		lru := r.lru.LRUEntry()
		if lru == nil {
			return false
		}
		m.drop(r, lru.Value, false)
	}
	if err := m.ssdWrite(p, r.base+off); err != nil {
		m.quarantine(r.alloc, off, size)
		return false
	}
	x := &extent{off: off, bytes: size}
	e := &ssdEntry{key: key, ext: x, off: off, bytes: size, loadedAt: loadedAt}
	x.entries = []*ssdEntry{e}
	r.dyn[key] = e
	r.lru.Put(uint64(off), size, x)
	return true
}

// copiedUp is a no-op: baseline SSD entries have no replaceable state.
func (entryLayout) copiedUp(*entryState) {}

// expireResult releases the entry's extent.
func (l entryLayout) expireResult(e *ssdEntry) { l.m.drop(&l.m.results, e.ext, false) }

// resultRetireKind: a result extent is one entry.
func (entryLayout) resultRetireKind() EventKind { return EvResultEvict }

// checkExtent accepts any extent: the baseline writes unaligned.
func (entryLayout) checkExtent(*extent) error { return nil }
