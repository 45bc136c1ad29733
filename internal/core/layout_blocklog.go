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
func (l blockLogLayout) chooseL1ListVictim(exclude *cache.Entry[memList]) *cache.Entry[memList] {
	m := l.m
	window := m.cfg.WindowW
	if window < 8 {
		window = 8
	}
	var best *cache.Entry[memList]
	bestEV := 0.0
	for _, e := range m.ic.TailWindow(window + 1) { // +1 headroom for exclude
		if e == exclude {
			continue
		}
		ml := &e.Value
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
	capBytes := m.prefixCap()

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
		m.emit(Event{Kind: EvListTooLarge, Term: t})
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
		grown = m.prefixBuf(target)
	} else {
		if int64(cap(l1.prefix)) < target {
			buf := m.prefixBuf(min(max(target, 2*int64(cap(l1.prefix))), capBytes))
			copy(buf, l1.prefix)
			m.freePrefix(l1.prefix)
			l1.prefix = buf[:have]
		}
		grown = l1.prefix[:target]
	}
	copy(grown[have:endPos], p[have-off:])
	if target > endPos {
		// The prefix reaches as far as readahead bytes arrived.
		target = endPos + m.readThrough(t, endPos, grown[endPos:])
		grown = grown[:target]
		m.emit(Event{Kind: EvListPrefetch, Term: t, Bytes: target - endPos})
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
func (l blockLogLayout) flushList(ml memList) {
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
		m.emit(Event{Kind: EvListReject, Term: ml.term})
		m.freePrefix(ml.prefix)
		return
	}
	if ev(m.termFreq[ml.term], sc) < m.cfg.TEV || scBytes > m.lists.lru.Capacity() {
		m.emit(Event{Kind: EvListDiscard, Term: ml.term, N: 1})
		m.freePrefix(ml.prefix)
		return
	}

	// Unnecessary-write elimination: if L2 already holds at least as much
	// of this list — a static pin, or a copy in the write buffer or on the
	// SSD left replaceable by an earlier read-back — revalidate instead of
	// rewriting (§VI-C1, write-buffer check). A dynamic overlay larger than
	// a conservative static pin is allowed: it fills the pin's coverage gap.
	if existing := m.ssdListFor(ml.term); existing != nil && existing.bytes >= si {
		existing.state = stateNormal
		m.emit(Event{Kind: EvListElide, Term: ml.term})
		m.freePrefix(ml.prefix)
		return
	}
	if old := m.lists.dyn[uint64(ml.term)]; old != nil {
		// A shorter dynamic copy — the one ssdListFor returned, or one
		// behind a static pin it preferred — is replaced, not doubled.
		m.dropSSDList(old)
	}

	sl := &ssdEntry{key: uint64(ml.term), bytes: si, loadedAt: ml.loadedAt, data: ml.prefix}
	m.lists.dyn[sl.key] = sl
	if si >= m.cfg.BlockBytes {
		m.writeListExtent(scBytes, []*ssdEntry{sl})
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
// discarded once. Either way each prefix buffer is freed, once staging holds
// its bytes or once the list is lost.
func (m *Manager) writeListExtent(bytes int64, batch []*ssdEntry) {
	r := &m.lists
	x := &extent{bytes: bytes, entries: batch}
	var payload int64
	for _, sl := range batch {
		sl.ext = x
		payload += sl.bytes
	}
	lists, first := int64(len(batch)), workload.TermID(batch[0].key)
	if !m.ssdHealthy() || !m.placeListExtent(x) {
		for _, sl := range batch {
			m.freePrefix(sl.data)
			sl.data = nil
		}
		m.unmap(r, x)
		m.emit(Event{Kind: EvListDiscard, Term: first, N: lists})
		return
	}
	buf := m.stagingBuf(x.bytes, payload)
	fill := x.off
	for _, sl := range x.entries {
		copy(buf[fill-x.off:], sl.data)
		m.freePrefix(sl.data)
		sl.off, sl.data = fill, nil
		fill += sl.bytes
	}
	if err := m.ssdWrite(buf, r.base+x.off); err != nil {
		// Error accounted by ssdWrite; the failed extent is retired.
		m.quarantineExtent(r, x)
		m.emit(Event{Kind: EvListDiscard, Term: first, N: lists})
		return
	}
	m.emit(Event{Kind: EvListFlush, Term: first, Bytes: x.bytes, N: lists, Part: payload})
	r.lru.Put(uint64(x.off), x.bytes, x)
}

// placeListExtent finds x a block-aligned home of x.bytes in the list
// region, applying the CBLRU placement ladder of Fig 13 over extents:
//
//  1. free space;
//  2. overwrite in place the same-size extent of the replace-first region
//     that holds the fewest normal bytes, the least recent on ties (victim) —
//     for one list per extent that is steps 2–3 of the figure (a replaceable
//     entry, else any), for packed extents the IREN rule of Fig 11;
//  3. assemble room by evicting replace-first-region extents;
//  4. widen the search to the whole LRU list (the paper's rare worst case).
func (m *Manager) placeListExtent(x *extent) (ok bool) {
	r := &m.lists
	if x.off, ok = r.alloc.AllocAligned(x.bytes, m.cfg.BlockBytes); ok {
		return true
	}
	window := r.lru.TailWindow(m.cfg.WindowW)
	if v := victim(window, x.bytes); v != nil {
		m.unmap(r, v)
		m.emit(Event{Kind: EvListOverwrite})
		x.off = v.off
		return true
	}

	// Evict window extents, least recent first, until an aligned allocation
	// succeeds.
	for _, e := range window {
		m.drop(r, e.Value, true)
		if x.off, ok = r.alloc.AllocAligned(x.bytes, m.cfg.BlockBytes); ok {
			return true
		}
	}

	// Whole-list sweep, LRU to MRU.
	r.lru.Ascend(func(e *cache.Entry[*extent]) bool {
		m.drop(r, e.Value, true)
		x.off, ok = r.alloc.AllocAligned(x.bytes, m.cfg.BlockBytes)
		return !ok
	})
	if ok {
		m.emit(Event{Kind: EvListWorstCase})
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
	if e := m.results.lookup(qid); e != nil {
		e.state = stateNormal
		m.emit(Event{Kind: EvResultElide})
		m.freeEntry(mr.data)
		return
	}
	for i := range m.writeBuf {
		if b := &m.writeBuf[i]; b.qid == qid {
			// Put again while its copy waited here (by a caller that did not
			// look it up first): the newer copy takes the older one's place,
			// so one is written.
			m.freeEntry(b.data)
			b.data, b.loadedAt = mr.data, mr.loadedAt
			m.emit(Event{Kind: EvResultElide})
			return
		}
	}
	if l.doorkeeper && m.queryFreq[qid] < 2 {
		m.emit(Event{Kind: EvResultReject})
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
// write (Fig 10b).
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
	r, bs, es := &m.results, m.cfg.BlockBytes, m.cfg.ResultEntryBytes
	var off int64
	ok := m.ssdHealthy()
	if ok {
		off, ok = m.placeResultBlock()
	}
	if !ok {
		m.emit(Event{Kind: EvResultDrop, N: int64(n)})
		m.freeBatch(batch)
		return
	}

	// Entries are exactly ResultEntryBytes each (PutResult enforces it), so
	// together they overwrite the whole payload.
	buf := m.stagingBuf(bs, int64(n)*es)
	for i, b := range batch {
		copy(buf[int64(i)*es:], b.data)
	}
	if err := m.ssdWrite(buf, r.base+off); err != nil {
		// The write failed (error accounted by ssdWrite): quarantine the
		// extent so the bad range is not immediately re-allocated, and
		// re-queue each entry once — a second failure drops it, counted.
		m.quarantine(r.alloc, off, bs)
		for _, b := range batch {
			if b.requeued {
				m.emit(Event{Kind: EvResultDrop, N: 1})
				m.freeEntry(b.data)
				continue
			}
			b.requeued = true
			m.writeBuf = append(m.writeBuf, b)
			m.emit(Event{Kind: EvResultRequeue})
		}
		return
	}
	x := &extent{off: off, bytes: bs, entries: make([]*ssdEntry, n)}
	for i, b := range batch {
		e := &ssdEntry{key: b.qid, ext: x, off: off + int64(i)*es, bytes: es, loadedAt: b.loadedAt}
		x.entries[i] = e
		r.dyn[b.qid] = e
	}
	m.freeBatch(batch) // staging holds the bytes now
	m.emit(Event{Kind: EvRBFlush, Bytes: bs})
	r.lru.Put(uint64(off), bs, x)
}

// placeResultBlock finds a block of the result region for a new RB: free
// space, else the victim RB of the replace-first region (Fig 11) is retired
// and its block allocated again.
func (m *Manager) placeResultBlock() (int64, bool) {
	r, bs := &m.results, m.cfg.BlockBytes
	if off, ok := r.alloc.AllocAligned(bs, bs); ok {
		return off, true
	}
	v := victim(r.lru.TailWindow(m.cfg.WindowW), bs)
	if v == nil {
		return 0, false
	}
	m.drop(r, v, true)
	return r.alloc.AllocAligned(bs, bs)
}

// freeBatch takes back the buffers of write-buffer entries leaving memory.
func (m *Manager) freeBatch(batch []bufferedResult) {
	for _, b := range batch {
		m.freeEntry(b.data)
	}
}

// copiedUp flips the entry to replaceable: its SSD copy stays readable
// but may now be overwritten first (Fig 9).
func (blockLogLayout) copiedUp(st *entryState) { *st = stateReplaceable }

// expireResult invalidates and trims only the slot; the RB lives on for
// IREN-based replacement.
func (l blockLogLayout) expireResult(e *ssdEntry) {
	m := l.m
	e.ext.entries = slices.DeleteFunc(e.ext.entries, func(o *ssdEntry) bool { return o == e })
	delete(m.results.dyn, e.key)
	m.ssdTrim(m.results.base+e.off, e.bytes)
	m.emit(Event{Kind: EvResultEvict, Level: LevelSSD})
}

// resultRetireKind: a result extent is a result block.
func (blockLogLayout) resultRetireKind() EventKind { return EvRBRetire }

// checkExtent requires whole, block-aligned extents.
func (l blockLogLayout) checkExtent(x *extent) error {
	if bs := l.m.cfg.BlockBytes; x.off%bs != 0 || x.bytes%bs != 0 {
		return fmt.Errorf("extent [%d,+%d) not block-aligned", x.off, x.bytes)
	}
	return nil
}
