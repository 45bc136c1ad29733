package core

import (
	"fmt"
)

// ResultSource says where a result-cache hit was served from.
type ResultSource int

// Result lookup outcomes.
const (
	ResultMiss ResultSource = iota
	ResultFromMemory
	ResultFromSSD
)

// GetResult looks a query's cached result entry up: L1, then the write
// buffer (still memory), then the L2 result cache on SSD. Per the hybrid
// scheme an SSD hit is promoted to L1 while the SSD copy goes replaceable
// (Fig 9). The slice returned is a view of a cache-owned buffer, valid until
// the next call into the Manager: decode it or copy it, never keep or write it.
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
	for _, b := range m.writeBuf {
		if b.qid == qid && !m.resultExpired(b.loadedAt) {
			return m.resultMemHit(b.data)
		}
	}
	if loc, ok := m.resultLoc[qid]; ok {
		switch {
		case !loc.rb.static && m.resultExpired(loc.loadedAt):
			// The layout emits the eviction (stats≡trace, DESIGN §9) and
			// releases what its placement unit allows.
			m.emit(Event{Kind: EvResultExpire})
			m.lay.expireResult(loc)
		case !m.ssdHealthy():
			// Breaker open: route around the SSD tier. The mapping stays —
			// the entry may still be readable once the breaker closes.
			m.emit(Event{Kind: EvDegraded, Level: LevelSSD})
		default:
			data := m.entryBuf() // dirty: the device overwrites all of it
			off := loc.rb.off + int64(loc.slot)*m.cfg.ResultEntryBytes
			if err := m.ssdRead(data, off); err != nil {
				// Read failure (error already accounted by ssdRead). A dynamic
				// extent that failed a read is retired and quarantined — on real
				// SSDs a failing range tends to keep failing, so re-reading or
				// re-allocating it would convert one fault into many. Static RBs
				// are left in place (the breaker guards repeated failures; the
				// static partition is rebuilt offline).
				m.freeEntry(data)
				if !loc.rb.static {
					m.lay.quarantineResult(loc)
				}
				break
			}
			m.emit(Event{Kind: EvResultHit, Level: LevelSSD, Bytes: int64(len(data))})
			if !loc.rb.static {
				m.lay.copiedUp(&loc.state)
				m.rbLRU.Get(loc.rb.num) // promotes the RB
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
	} else if m.rbLRU == nil {
		m.emit(Event{Kind: EvResultDrop, N: 1})
	} else {
		m.lay.evictResult(qid, mr)
		return
	}
	m.freeEntry(mr.data)
}

// PinResult stores an encoded result entry in the static partition of the
// L2 result cache (CBSLRU). Entries are packed into static RBs that are
// never replaced. Returns false when the static budget is exhausted or the
// entry is longer than ResultEntryBytes.
func (m *Manager) PinResult(qid uint64, data []byte) bool {
	if !m.UsesStaticPartition() || m.rbLRU == nil {
		return false
	}
	if _, ok := m.resultLoc[qid]; ok {
		return true
	}
	if !m.ssdHealthy() {
		return false
	}
	if data = m.PadResult(data); int64(len(data)) != m.cfg.ResultEntryBytes {
		return false
	}

	// Find (or open) a static RB with a free slot. Static slots are never
	// vacated, so the first-free cursor only moves forward: pinning N
	// entries costs O(N), not O(N²) rescans of already-full RBs.
	var rb *resultBlock
	for m.staticRBScan < len(m.staticRBs) {
		if cand := m.staticRBs[m.staticRBScan]; cand.freeSlot() >= 0 {
			rb = cand
			break
		}
		m.staticRBScan++
	}
	if rb == nil {
		if int64(len(m.staticRBs)+1)*m.cfg.BlockBytes > m.StaticResultBudget() {
			return false
		}
		off, ok := m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes)
		if !ok {
			return false
		}
		rb = &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, m.entriesPerRB), static: true}
		m.nextRB++
		m.staticRBs = append(m.staticRBs, rb)
	}
	i := rb.freeSlot()
	if i < 0 {
		return false
	}
	off := rb.off + int64(i)*m.cfg.ResultEntryBytes
	if err := m.ssdWrite(data, off); err != nil {
		// Error accounted by ssdWrite; the slot stays open for a retry and
		// the breaker stops a persistently failing device from being pinned
		// against repeatedly.
		return false
	}
	m.emit(Event{Kind: EvResultFlush, Bytes: int64(len(data))})
	loc := &ssdResult{qid: qid, rb: rb, slot: i}
	rb.slots[i] = loc
	m.resultLoc[qid] = loc
	return true
}

// StaticResultBudget returns the byte budget of the static result
// partition.
func (m *Manager) StaticResultBudget() int64 {
	if !m.UsesStaticPartition() || m.rbLRU == nil {
		return 0
	}
	return int64(float64(m.cfg.SSDResultBytes) * m.cfg.StaticFraction)
}

// WriteBufferLen returns the number of result entries awaiting RB assembly.
func (m *Manager) WriteBufferLen() int { return len(m.writeBuf) }

// FlushWriteBuffer forces assembly of any full RBs and reports how many
// entries remain buffered (used at experiment end). The loop is progress-
// checked: a flush that re-queues its whole batch after a write failure
// leaves the buffer length unchanged, and retrying immediately would spin.
func (m *Manager) FlushWriteBuffer() int {
	for len(m.writeBuf) >= m.entriesPerRB {
		before := len(m.writeBuf)
		m.flushResultBlock()
		if len(m.writeBuf) >= before {
			break
		}
	}
	return len(m.writeBuf)
}
