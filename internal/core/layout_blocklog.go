package core

import (
	"fmt"
	"slices"

	"hybridstore/internal/cache"
	"hybridstore/internal/workload"
)

// blockLogLayout is the cost-based family (§VI): L1 caches the Formula-1 used
// prefix of a list and evicts by efficiency value (Fig 12); L1 evictions pass
// selection, then land in whole block-aligned extents — list prefixes through
// the Fig 13 ladder, result entries through the write buffer as assembled
// result blocks — and an SSD entry whose content was copied back up goes
// replaceable (Fig 9), to be overwritten first. doorkeeper is the registry's
// Doorkeeper bit: selection first turns away what the frequency sketches have
// seen less than twice.
type blockLogLayout struct {
	m          *Manager
	doorkeeper bool
}

// chooseL1ListVictim picks the minimum-EV entry within the replace-first
// window (Fig 12), skipping exclude.
func (l blockLogLayout) chooseL1ListVictim(exclude *cache.Entry[*memList]) *cache.Entry[*memList] {
	m := l.m
	window := m.cfg.WindowW
	if window < 8 {
		window = 8
	}
	var best *cache.Entry[*memList]
	bestEV := 0.0
	for _, e := range m.ic.TailWindow(window + 1) { // +1 headroom for exclude
		if e == exclude {
			continue
		}
		ml := e.Value
		v := ev(m.termFreq[ml.term], m.scBlocks(int64(len(ml.prefix)), m.pu(ml.term)))
		if best == nil || v < bestEV {
			best, bestEV = e, v
		}
	}
	return best
}

// fillL1 grows the contiguous used prefix, rounded up by the readahead
// quantum when the disk head is already positioned past the tail.
func (l blockLogLayout) fillL1(t workload.TermID, l1 *memList, off int64, p []byte, total int64, hddTail bool) {
	m := l.m
	capBytes := m.ic.Capacity() / maxL1EntryShare

	// Extension is only possible when the served range connects to the
	// existing prefix.
	have := int64(0)
	if l1 != nil {
		have = int64(len(l1.prefix))
	}
	endPos := off + int64(len(p))
	if off > have || endPos <= have {
		return // gap, or nothing new
	}
	if endPos > capBytes {
		m.stats.ListsTooLargeForL1++
		return
	}

	// Readahead: the head just streamed to endPos, so extending the
	// prefix to the next quantum boundary costs transfer time only and
	// absorbs the small termination-point variance between queries.
	target := endPos
	if hddTail && m.cfg.PrefetchQuantum > 0 {
		q := m.cfg.PrefetchQuantum
		target = (endPos + q - 1) / q * q
		if target > total {
			target = total
		}
		if target > capBytes {
			target = endPos
		}
	}

	// The new bytes land past len(prefix), in capacity grown geometrically
	// (and never past the entry cap), so reading a list in n chunks copies
	// it once, not n²/2 times. The simulated entry stays len(prefix) bytes:
	// the prefix is re-sliced only once the cache has made room, so a
	// failed extension leaves the entry exactly as it was.
	var grown []byte
	if l1 == nil {
		grown = make([]byte, target)
	} else {
		if int64(cap(l1.prefix)) < target {
			newCap := min(max(target, 2*int64(cap(l1.prefix))), capBytes)
			l1.prefix = append(make([]byte, 0, newCap), l1.prefix...)
		}
		grown = l1.prefix[:target]
	}
	copy(grown[have:endPos], p[have-off:])
	if target > endPos {
		// The prefix reaches as far as readahead bytes arrived.
		target = endPos + m.readThrough(t, endPos, grown[endPos:])
		grown = grown[:target]
		m.stats.ListBytesPrefetched += target - endPos
	}

	if l1 == nil {
		m.insertL1List(t, grown)
		return
	}
	e, _ := m.ic.Peek(uint64(t))
	need := target - e.Size
	m.makeRoomIC(need, e)
	if !m.ic.Fits(need) {
		return // could not free enough without touching this entry
	}
	l1.prefix = grown
	m.ic.Resize(e, target)
	m.memCost(int(need))
}

// flushList applies data selection (Formulas 1–2, TEV), then hands the
// prefix to placement: one of a block or more is written at once into SC
// blocks of its own, a shorter one joins the list write buffer.
func (l blockLogLayout) flushList(ml *memList) {
	m := l.m
	// Formula 1: SC = ceil(SI × PU / SB). SI is the list's full size and
	// PU its utilization rate, so SI × PU is the used prefix — which is
	// exactly the byte length this entry holds in memory.
	si := int64(len(ml.prefix))
	sc := m.scBlocks(si, 1)
	scBytes := sc * m.cfg.BlockBytes

	// Selection: what is worth flash writes is the paper's EV-vs-TEV check,
	// behind the doorkeeper, which rejects one-hit wonders first.
	if l.doorkeeper && m.termFreq[ml.term] < 2 {
		m.stats.ListsRejectedByAdmission++
		m.stats.ListsDiscarded++
		return
	}
	if ev(m.termFreq[ml.term], sc) < m.cfg.TEV || scBytes > m.icLRU.Capacity() {
		m.stats.ListsDiscarded++
		return
	}

	// Unnecessary-write elimination: if L2 already holds at least as much
	// of this list — a static pin, or a copy in the write buffer or on the
	// SSD left replaceable by an earlier read-back — revalidate instead of
	// rewriting (§VI-C1, write-buffer check). A dynamic overlay larger than
	// a conservative static pin is allowed: it fills the pin's coverage gap.
	if existing := m.ssdListFor(ml.term); existing != nil && existing.validBytes >= si {
		existing.state = stateNormal
		m.stats.ListWritesElided++
		return
	}
	if old := m.icDyn[ml.term]; old != nil {
		// A shorter dynamic copy — the one ssdListFor returned, or one
		// behind a static pin it preferred — is replaced, not doubled.
		m.dropSSDList(old)
	}

	sl := &ssdList{term: ml.term, validBytes: si, loadedAt: ml.loadedAt, data: ml.prefix}
	m.icDyn[sl.term] = sl
	if si >= m.cfg.BlockBytes {
		m.writeListExtent(scBytes, []*ssdList{sl})
		return
	}
	if m.listBufBytes+si > m.listBufCap {
		m.flushListBuffer()
	}
	m.listBuf = append(m.listBuf, sl)
	m.listBufBytes += si
	m.memCost(int(si))
}

// flushListBuffer writes the buffered prefixes out, packed end to end into
// one block: the write buffer turns sub-block lists into the same whole,
// aligned, sequential writes long lists and result blocks are (§VI-B).
func (m *Manager) flushListBuffer() {
	if len(m.listBuf) == 0 {
		return
	}
	batch := slices.Clone(m.listBuf)
	clear(m.listBuf)
	m.listBuf, m.listBufBytes = m.listBuf[:0], 0
	m.writeListExtent(m.cfg.BlockBytes, batch)
}

// writeListExtent places an extent of the given whole blocks in the list
// region (Fig 13) and writes the lists' prefixes into it end to end, padded
// with zeros, as one block-aligned sequential write. When the SSD is failing,
// has no room or fails the write (the extent is then quarantined), every one
// of the lists is lost from the cache — still on the HDD — and counted
// discarded once.
func (m *Manager) writeListExtent(bytes int64, batch []*ssdList) {
	x := &listExtent{bytes: bytes, lists: batch}
	var payload int64
	for _, sl := range batch {
		sl.ext = x
		payload += sl.validBytes
	}
	lists, first := int64(len(batch)), batch[0].term
	if !m.ssdHealthy() || !m.placeListExtent(x) {
		m.unmapListExtent(x)
		m.stats.ListsDiscarded += lists
		return
	}
	buf := m.stagingBuf(x.bytes, payload)
	fill := x.off
	for _, sl := range x.lists {
		copy(buf[fill-x.off:], sl.data)
		sl.off, sl.data = fill, nil
		fill += sl.validBytes
	}
	if err := m.ssdWrite(buf, m.icBase()+x.off); err != nil {
		// Error accounted by ssdWrite; the failed extent is retired.
		m.quarantineListExtent(x)
		m.stats.ListsDiscarded += lists
		return
	}
	m.noteListWrite(first, x.bytes, lists, payload)
	m.icLRU.Put(uint64(x.off), x.bytes, x)
}

// placeListExtent finds x a block-aligned home of x.bytes in the list
// region, applying the CBLRU placement ladder of Fig 13 over extents:
//
//  1. free space;
//  2. overwrite in place the same-size extent of the replace-first region
//     that holds the fewest normal bytes, the least recent on ties — for one
//     list per extent that is steps 2–3 of the figure (a replaceable entry,
//     else any), for packed extents the IREN rule of Fig 11;
//  3. assemble room by evicting replace-first-region extents;
//  4. widen the search to the whole LRU list (the paper's rare worst case).
func (m *Manager) placeListExtent(x *listExtent) (ok bool) {
	if x.off, ok = m.icAlloc.AllocAligned(x.bytes, m.cfg.BlockBytes); ok {
		return true
	}
	window := m.icLRU.TailWindow(m.cfg.WindowW)

	var victim *listExtent
	var least int64
	for _, e := range window {
		if v := e.Value; v.bytes == x.bytes {
			if nb := v.normalBytes(); victim == nil || nb < least {
				victim, least = v, nb
			}
		}
	}
	if victim != nil {
		m.unmapListExtent(victim)
		m.stats.ListOverwritesInPlace++
		x.off = victim.off
		return true
	}

	// Evict window extents, least recent first, until an aligned allocation
	// succeeds.
	for _, e := range window {
		m.evictListExtent(e.Value)
		if x.off, ok = m.icAlloc.AllocAligned(x.bytes, m.cfg.BlockBytes); ok {
			return true
		}
	}

	// Whole-list sweep, LRU to MRU.
	m.icLRU.Ascend(func(e *cache.Entry[*listExtent]) bool {
		m.evictListExtent(e.Value)
		x.off, ok = m.icAlloc.AllocAligned(x.bytes, m.cfg.BlockBytes)
		return !ok
	})
	if ok {
		m.stats.ListPlacementWorstCase++
	}
	return ok
}

// evictResult queues the entry in the write buffer for RB assembly, unless
// the SSD already holds it or the doorkeeper turns it away. The paper buffers
// every other evicted result entry.
func (l blockLogLayout) evictResult(qid uint64, mr *memResult) {
	m := l.m
	// Write-buffer check (Fig 10): if the SSD already holds a valid copy
	// (left replaceable by an earlier read-back), revalidate it and skip
	// the write entirely.
	if loc, ok := m.resultLoc[qid]; ok {
		loc.state = stateNormal
		m.stats.ResultWritesElided++
		m.freeEntry(mr.data)
		return
	}
	if l.doorkeeper && m.queryFreq[qid] < 2 {
		m.stats.ResultsRejectedByAdmission++
		m.freeEntry(mr.data)
		return
	}
	m.writeBuf = append(m.writeBuf, bufferedResult{qid: qid, data: mr.data, loadedAt: mr.loadedAt})
	m.memCost(len(mr.data))
	if len(m.writeBuf) >= m.entriesPerRB {
		m.flushResultBlock()
	}
}

// flushResultBlock assembles entriesPerRB buffered entries into one result
// block and writes it to the SSD as a single block-aligned sequential
// write (Fig 10b), choosing the victim RB by IREN within the replace-first
// region when no free block exists (Fig 11).
func (m *Manager) flushResultBlock() {
	n := m.entriesPerRB
	if len(m.writeBuf) < n {
		return
	}
	// The batch moves to its own scratch and the buffer shifts down in place,
	// so a failed write re-queues behind the entries that arrived since.
	batch := m.rbBatch[:copy(m.rbBatch, m.writeBuf)]
	m.writeBuf = m.writeBuf[:copy(m.writeBuf, m.writeBuf[n:])]

	// Breaker open (flushing would hammer the failing device) or no block to
	// be had: drop the batch with accounting, not let the buffer grow unbounded.
	var off int64
	ok := m.ssdHealthy()
	if ok {
		if off, ok = m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes); !ok {
			if rb := m.chooseVictimRB(); rb != nil {
				m.retireRB(rb)
				off, ok = m.rcAlloc.AllocAligned(m.cfg.BlockBytes, m.cfg.BlockBytes)
			}
		}
	}
	if !ok {
		m.stats.ResultsDropped += int64(n)
		m.freeBatch(batch)
		return
	}

	rb := &resultBlock{num: m.nextRB, off: off, slots: make([]*ssdResult, n)}
	m.nextRB++
	// Entries are exactly ResultEntryBytes each (PutResult enforces it), so
	// together they overwrite the whole payload.
	buf := m.stagingBuf(m.cfg.BlockBytes, int64(n)*m.cfg.ResultEntryBytes)
	for i, b := range batch {
		copy(buf[int64(i)*m.cfg.ResultEntryBytes:], b.data)
		loc := &ssdResult{qid: b.qid, rb: rb, slot: i, loadedAt: b.loadedAt}
		rb.slots[i] = loc
		m.resultLoc[b.qid] = loc
	}
	if err := m.ssdWrite(buf, off); err != nil {
		// The write failed (error accounted by ssdWrite): quarantine the
		// extent so the bad range is not immediately re-allocated, and
		// re-queue each entry once — a second failure drops it, counted.
		m.quarantine(m.rcAlloc, off, m.cfg.BlockBytes)
		for _, b := range batch {
			delete(m.resultLoc, b.qid)
			if b.requeued {
				m.stats.ResultsDropped++
				m.freeEntry(b.data)
				continue
			}
			b.requeued = true
			m.writeBuf = append(m.writeBuf, b)
			m.stats.ResultsRequeued++
		}
		return
	}
	m.freeBatch(batch) // staging holds the bytes now
	m.stats.ResultBytesToSSD += m.cfg.BlockBytes
	m.stats.RBFlushes++
	m.emit(Event{Kind: EvResultFlush, Bytes: m.cfg.BlockBytes})
	m.rbLRU.Put(rb.num, m.cfg.BlockBytes, rb)
}

// freeBatch takes back the buffers of write-buffer entries leaving memory.
func (m *Manager) freeBatch(batch []bufferedResult) {
	for _, b := range batch {
		m.freeEntry(b.data)
	}
}

// chooseVictimRB returns the RB with the largest IREN inside the
// replace-first region (Fig 11), or the plain LRU block if the region is
// empty. Returns nil when no dynamic RB exists.
func (m *Manager) chooseVictimRB() *resultBlock {
	window := m.rbLRU.TailWindow(m.cfg.WindowW)
	if len(window) == 0 {
		return nil
	}
	best := window[0].Value
	bestIREN := best.iren()
	for _, e := range window[1:] {
		rb := e.Value
		if ir := rb.iren(); ir > bestIREN {
			best, bestIREN = rb, ir
		}
	}
	return best
}

// unmapRB drops the mappings of an RB's remaining entries and takes it off
// the LRU list; what becomes of its extent is the caller's business.
func (m *Manager) unmapRB(rb *resultBlock) {
	for _, loc := range rb.slots {
		if loc != nil {
			delete(m.resultLoc, loc.qid)
		}
	}
	if e, ok := m.rbLRU.Peek(rb.num); ok {
		m.rbLRU.RemoveEntry(e)
	}
}

// retireRB invalidates an RB's remaining entries and frees its extent.
func (m *Manager) retireRB(rb *resultBlock) {
	m.unmapRB(rb)
	m.rcAlloc.Free(rb.off, m.cfg.BlockBytes)
	m.ssdTrim(rb.off, m.cfg.BlockBytes)
	m.stats.RBRetired++
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// copiedUp flips the entry to replaceable: its SSD copy stays readable
// but may now be overwritten first (Fig 9).
func (blockLogLayout) copiedUp(st *entryState) { *st = stateReplaceable }

// expireResult invalidates and trims only the slot; the RB lives on for
// IREN-based replacement.
func (l blockLogLayout) expireResult(loc *ssdResult) {
	m := l.m
	loc.rb.slots[loc.slot] = nil
	delete(m.resultLoc, loc.qid)
	m.ssdTrim(loc.rb.off+int64(loc.slot)*m.cfg.ResultEntryBytes, m.cfg.ResultEntryBytes)
	m.stats.L2ResultEvictions++
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// quarantineResult retires the whole RB around the failing entry: mappings
// are dropped and the extent is quarantined (never re-allocated) instead of
// freed. No trim — the range is being abandoned, not recycled.
func (l blockLogLayout) quarantineResult(loc *ssdResult) {
	m, rb := l.m, loc.rb
	m.unmapRB(rb)
	m.quarantine(m.rcAlloc, rb.off, m.cfg.BlockBytes)
	m.stats.RBRetired++
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// rbExtentBytes is one whole block.
func (l blockLogLayout) rbExtentBytes() int64 { return l.m.cfg.BlockBytes }

// checkListExtent requires whole, block-aligned extents.
func (l blockLogLayout) checkListExtent(x *listExtent) error {
	if bs := l.m.cfg.BlockBytes; x.off%bs != 0 || x.bytes%bs != 0 {
		return fmt.Errorf("list extent [%d,+%d) not block-aligned", x.off, x.bytes)
	}
	return nil
}
