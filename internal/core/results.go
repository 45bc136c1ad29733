package core

import "fmt"

// ResultSource says where a result-cache hit was served from.
type ResultSource int

// Result lookup outcomes.
const (
	ResultMiss ResultSource = iota
	ResultFromMemory
	ResultFromSSD
)

// GetResult looks a query's cached result entry up: L1, then the L2 result
// cache — a copy waiting in its write buffer, still memory, or one on the
// SSD. Per the hybrid scheme an SSD hit is promoted to L1 while the SSD copy
// goes replaceable (Fig 9). The slice returned is a view of a cache-owned
// buffer, valid until the next call into the Manager: decode it or copy it,
// never keep or write it.
func (m *Manager) GetResult(qid uint64) ([]byte, ResultSource) {
	bumpFreq(m.queryFreq, qid, m.cfg.FreqCap)

	if e, ok := m.rc.Get(qid); ok {
		mr := &e.Value
		if !m.resultExpired(mr.loadedAt) {
			return m.resultMemHit(mr.data)
		}
		m.rc.RemoveEntry(e)
		m.freeEntry(mr.data)
		m.emit(Event{Kind: EvResultExpire})
	}
	r := &m.results
	if e := r.lookup(qid); e != nil {
		switch {
		case (e.ext == nil || !e.ext.static) && m.resultExpired(e.loadedAt):
			// A dynamic copy is dropped, or the recomputed entry would join
			// it in L2. On the SSD, the layout emits the eviction
			// (stats≡trace, DESIGN §9) and releases what its placement unit
			// allows.
			m.emit(Event{Kind: EvResultExpire})
			if e.ext == nil {
				m.unbuffer(r, e)
			} else {
				m.lay.expireResult(e)
			}
		case e.ext == nil:
			return m.resultMemHit(e.data)
		case !m.ssdHealthy():
			// Breaker open: route around the SSD tier. The mapping stays —
			// the entry may still be readable once the breaker closes.
			m.emit(Event{Kind: EvDegraded, Level: LevelSSD})
		default:
			data := m.entryBuf() // dirty: the device overwrites all of it
			if err := m.ssdRead(data, r.base+e.off); err != nil {
				// Read failure (error already accounted by ssdRead). A dynamic
				// extent that failed a read is retired and quarantined — on real
				// SSDs a failing range tends to keep failing, so re-reading or
				// re-allocating it would convert one fault into many. Static
				// extents are left in place (the breaker guards repeated
				// failures; the static partition is rebuilt offline).
				m.freeEntry(data)
				if !e.ext.static {
					m.quarantineExtent(r, e.ext)
				}
				break
			}
			m.emit(Event{Kind: EvResultHit, Level: LevelSSD, Bytes: int64(len(data))})
			if !e.ext.static {
				m.lay.copiedUp(&e.state)
				r.lru.Get(uint64(e.ext.off)) // promotes the RB
			}
			m.putResultL1(qid, data)
			return data, ResultFromSSD
		}
	}
	m.emit(Event{Kind: EvResultMiss})
	return nil, ResultMiss
}

// resultMemHit accounts a result served from memory, L1 or the write buffer.
func (m *Manager) resultMemHit(data []byte) ([]byte, ResultSource) {
	m.memCost(len(data))
	m.emit(Event{Kind: EvResultHit, Level: LevelMem, Bytes: int64(len(data))})
	return data, ResultFromMemory
}

// PutResult caches a freshly computed result entry in L1. The entry must
// be exactly ResultEntryBytes long (the paper's fixed-length entries);
// shorter payloads are padded by the caller, via PadResult or by encoding
// into an entry-sized buffer. data is copied into a cache-owned buffer and
// not retained (storage.Device.WriteAt's contract): the caller may reuse it.
//
// Result entries are immutable per query ID: the paper's evaluation is the
// static scenario (§IV-B), where recomputing a query always yields the same
// entry. Re-putting an ID refreshes recency, not content, and copies nothing.
func (m *Manager) PutResult(qid uint64, data []byte) error {
	if int64(len(data)) != m.cfg.ResultEntryBytes {
		return fmt.Errorf("core: result entry %d bytes, want %d", len(data), m.cfg.ResultEntryBytes)
	}
	if e, ok := m.rc.Peek(qid); ok {
		if !m.resultExpired(e.Value.loadedAt) {
			m.rc.Touch(e)
			return nil
		}
		m.rc.RemoveEntry(e) // refresh expired content below
		m.freeEntry(e.Value.data)
		m.emit(Event{Kind: EvResultExpire})
	}
	buf := m.entryBuf()
	copy(buf, data)
	m.putResultL1(qid, buf)
	return nil
}

// PadResult pads an encoded result to the fixed entry size in a new slice
// the caller owns. An entry that is already longer is returned as it is —
// cutting it would store bytes that no longer decode — for PutResult and
// PinResult to refuse.
func (m *Manager) PadResult(data []byte) []byte {
	if int64(len(data)) >= m.cfg.ResultEntryBytes {
		return data
	}
	out := make([]byte, m.cfg.ResultEntryBytes)
	copy(out, data)
	return out
}

// putResultL1 inserts a non-resident query's entry buffer into the L1 result
// cache, which owns it from here, evicting LRU entries into the SSD path as
// needed (§VI-C1: L1 RC victims are chosen by LRU under every policy; the
// policies differ below L1).
func (m *Manager) putResultL1(qid uint64, data []byte) {
	size := int64(len(data))
	for !m.rc.Fits(size) {
		victim := m.rc.LRUEntry()
		if victim == nil {
			m.freeEntry(data)
			return
		}
		m.rc.RemoveEntry(victim)
		m.emit(Event{Kind: EvResultEvict, Level: LevelMem})
		m.evictResultToSSD(victim.Key, &victim.Value)
	}
	m.rc.Put(qid, size, memResult{data: data, loadedAt: m.clock.Now()})
	m.memCost(int(size))
}

// evictResultToSSD routes an L1 result eviction to the L2 result cache.
// Expired entries are dropped instead of flushed: stale data is not worth SSD
// writes. The buffer goes with the entry: to the layout, or to the free list.
func (m *Manager) evictResultToSSD(qid uint64, mr *memResult) {
	if m.resultExpired(mr.loadedAt) {
		m.emit(Event{Kind: EvResultExpire})
	} else if m.results.lru == nil {
		m.emit(Event{Kind: EvResultDrop, N: 1})
	} else {
		m.lay.evictResult(qid, mr)
		return
	}
	m.freeEntry(mr.data)
}

// PinResult stores an encoded result entry in the static partition of the
// L2 result cache (CBSLRU): entries fill static RBs slot by slot, and are
// never replaced. Returns false when the static budget is exhausted or the
// entry is longer than ResultEntryBytes.
func (m *Manager) PinResult(qid uint64, data []byte) bool {
	r := &m.results
	if !m.UsesStaticPartition() || r.lru == nil {
		return false
	}
	e := r.lookup(qid)
	if e != nil && e.ext != nil {
		return true // on the SSD already
	}
	if !m.ssdHealthy() {
		return false
	}
	n := m.cfg.ResultEntryBytes
	if int64(len(data)) > n {
		return false
	}
	fill := func(p []byte) error { clear(p[copy(p, data):]); return nil } // padded to the entry size
	if !m.pin(r, qid, n, m.cfg.BlockBytes, n, fill) {
		return false
	}
	m.emit(Event{Kind: EvResultFlush, Bytes: n})
	// A copy waiting in the write buffer would reach the SSD a second time,
	// as a dynamic entry, at the next RB flush: the pin replaces it, and that
	// write is counted as elided.
	if e != nil {
		m.unbuffer(r, e)
		m.emit(Event{Kind: EvResultElide})
	}
	return true
}
