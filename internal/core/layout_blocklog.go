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

	r := &m.lists
	sl := &ssdEntry{key: uint64(ml.term), bytes: si, loadedAt: ml.loadedAt, data: ml.prefix}
	r.dyn[sl.key] = sl
	if si >= m.cfg.BlockBytes {
		m.flush(r, sl)
		return
	}
	if r.bufBytes+si > r.bufCap {
		m.flush(r, nil)
	}
	r.push(sl)
	m.memCost(int(si))
}

// flush writes entries of region r that wait in memory to the SSD as one new
// extent, end to end and padded with zeros, in one aligned sequential write
// (§VI-B): long, a list prefix of a block or more, into SC blocks of its own;
// else the head of the write buffer into one block — a result block of
// entriesPerRB entries (Fig 10b), or every buffered list prefix, which turns
// sub-block lists into the same whole writes. The region's ladder places the
// extent (Figs 11, 13). When the SSD is failing or has no room, the entries
// are lost from the cache: counted, lists still on the HDD, results to be
// recomputed. A failed write quarantines the range; its lists are lost the
// same way, its results go back to the buffer once and are dropped the second
// time. An entry's buffer is freed once the SSD holds its bytes or it is lost.
func (m *Manager) flush(r *region, long *ssdEntry) {
	isList := r == &m.lists
	bytes := m.cfg.BlockBytes
	var batch []*ssdEntry
	if long != nil {
		bytes *= m.scBlocks(long.bytes, 1)
		batch = []*ssdEntry{long}
	} else {
		n := len(r.buf)
		if !isList {
			n = m.entriesPerRB
		}
		if n == 0 || len(r.buf) < n {
			return
		}
		// The batch moves to the extent's own slice and the buffer shifts
		// down, so a failed write re-queues its results behind those still
		// waiting.
		batch = slices.Clone(r.buf[:n])
		r.buf = slices.Delete(r.buf, 0, n)
		for _, e := range batch {
			r.bufBytes -= e.bytes
		}
	}
	x := &extent{bytes: bytes, entries: batch}
	var payload int64
	for _, e := range batch {
		payload += e.bytes
	}
	n := int64(len(batch))
	lost, done := Event{Kind: EvResultDrop, N: n}, Event{Kind: EvRBFlush, Bytes: bytes}
	if isList {
		first := workload.TermID(batch[0].key)
		lost = Event{Kind: EvListDiscard, Term: first, N: n}
		done = Event{Kind: EvListFlush, Term: first, Bytes: bytes, N: n, Part: payload}
	}

	ok := m.ssdHealthy()
	if ok && isList {
		ok = m.placeListExtent(x)
	} else if ok {
		ok = m.placeResultBlock(x)
	}
	if !ok {
		m.unmap(r, x)
		for _, e := range batch {
			m.release(r, e)
		}
		m.emit(lost)
		return
	}
	buf := m.stagingBuf(bytes, payload)
	var fill int64
	for _, e := range batch {
		copy(buf[fill:], e.data)
		fill += e.bytes
	}
	if err := m.ssdWrite(buf, r.base+x.off); err != nil {
		// Error accounted by ssdWrite: the range is quarantined, not
		// allocated again. A failed result block retires no RB.
		if isList {
			m.quarantineExtent(r, x)
			for _, e := range batch {
				m.release(r, e)
			}
			m.emit(lost)
			return
		}
		m.quarantine(r.alloc, x.off, bytes)
		for _, e := range batch {
			if !e.requeued {
				e.requeued = true
				r.push(e)
				m.emit(Event{Kind: EvResultRequeue})
				continue
			}
			delete(r.dyn, e.key)
			m.release(r, e)
			m.emit(Event{Kind: EvResultDrop, N: 1})
		}
		return
	}
	fill = x.off
	for _, e := range batch {
		e.ext, e.off = x, fill
		fill += e.bytes
		m.release(r, e)
	}
	m.emit(done)
	r.lru.Put(uint64(x.off), bytes, x)
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

// evictResult queues the entry in the result write buffer for RB assembly,
// unless L2 already holds it or the doorkeeper turns it away. The paper
// buffers every other evicted result entry.
func (l blockLogLayout) evictResult(qid uint64, mr *memResult) {
	m := l.m
	r := &m.results
	// Write-buffer check (Fig 10): if the write buffer or the SSD already
	// holds a copy — left replaceable by an earlier read-back, or put again
	// by a caller that did not look it up first — revalidate it and skip the
	// write entirely.
	if e := r.lookup(qid); e != nil {
		e.state = stateNormal
		m.emit(Event{Kind: EvResultElide})
		m.freeEntry(mr.data)
		return
	}
	if l.doorkeeper && m.queryFreq[qid] < 2 {
		m.emit(Event{Kind: EvResultReject})
		m.freeEntry(mr.data)
		return
	}
	e := &ssdEntry{key: qid, bytes: int64(len(mr.data)), loadedAt: mr.loadedAt, data: mr.data}
	r.dyn[qid] = e
	r.push(e)
	m.memCost(len(mr.data))
	if len(r.buf) >= m.entriesPerRB {
		m.flush(r, nil)
	}
}

// placeResultBlock finds x, a new RB, a block of the result region: free
// space, else the victim RB of the replace-first region (Fig 11) is retired
// and its block allocated again.
func (m *Manager) placeResultBlock(x *extent) (ok bool) {
	r, bs := &m.results, m.cfg.BlockBytes
	if x.off, ok = r.alloc.AllocAligned(bs, bs); ok {
		return true
	}
	v := victim(r.lru.TailWindow(m.cfg.WindowW), bs)
	if v == nil {
		return false
	}
	m.drop(r, v, true)
	x.off, ok = r.alloc.AllocAligned(bs, bs)
	return ok
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
