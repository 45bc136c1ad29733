package core

import (
	"slices"

	"hybridstore/internal/workload"
)

// flushListToSSD handles an inverted list evicted from L1 (Fig 5): unless
// it is stale or the L2 tier is absent or failing, the layout selects,
// places and writes it in the L2 list region. The prefix buffer goes with
// it: freed here, or the layout's from then on.
func (m *Manager) flushListToSSD(ml memList) {
	if m.listExpired(ml.loadedAt) {
		m.emit(Event{Kind: EvListExpire, Term: ml.term})
		m.freePrefix(ml.prefix)
		return
	}
	if m.lists.lru == nil || !m.ssdHealthy() {
		// No L2 tier, or the breaker is open: discard instead of writing
		// into a failing device. The list is still fully readable from the
		// backing index.
		m.emit(Event{Kind: EvListDiscard, Term: ml.term, N: 1})
		m.freePrefix(ml.prefix)
		return
	}
	m.lay.flushList(ml)
}

// dropSSDList unmaps one dynamic L2 list that was superseded by a longer
// prefix or has expired. A buffered prefix leaves the write buffer and its
// buffer is freed. One on the SSD leaves dead bytes in its extent — trimming
// inside an extent would only fragment physical blocks — and the extent is
// freed and trimmed at once when this was its last live list.
func (m *Manager) dropSSDList(sl *ssdEntry) {
	r, x := &m.lists, sl.ext
	switch {
	case x == nil:
		m.unbuffer(r, sl)
	case len(x.entries) == 1:
		m.drop(r, x, true)
		return
	default:
		x.entries = slices.DeleteFunc(x.entries, func(l *ssdEntry) bool { return l == sl })
		delete(r.dyn, sl.key)
	}
	m.emit(Event{Kind: EvListEvict, Term: workload.TermID(sl.key), Level: LevelSSD})
}

// PinList loads the first scBlocks-sized prefix of term t (per Formulas
// 1–2 with the current PU estimate) into the static partition of the L2
// list region: a prefix of a block or more takes SC blocks of its own, a
// shorter one is appended to the open static block, as PinResult fills
// static RBs slot by slot. It returns false when the static budget cannot
// hold the entry. Only meaningful under CBSLRU.
func (m *Manager) PinList(t workload.TermID) bool {
	r := &m.lists
	if !m.UsesStaticPartition() || r.lru == nil {
		return false
	}
	if _, ok := r.static[uint64(t)]; ok {
		return true
	}
	if !m.ssdHealthy() {
		return false
	}
	total := m.ix.ListBytes(t)
	si := max(int64(float64(total)*m.pu(t)), 1)
	scBytes := m.scBlocks(si, 1) * m.cfg.BlockBytes // si is already the used size; PU applied once
	valid := min(si, scBytes, total)

	// The write is the padded extent for a pin with blocks of its own, the
	// bare prefix for one appended to a shared block.
	n := scBytes
	if valid < m.cfg.BlockBytes {
		n = valid
	}
	read := func(p []byte) error { return m.ix.ReadListRange(t, 0, p) }
	if !m.pin(r, uint64(t), n, scBytes, valid, read) {
		return false
	}
	m.emit(Event{Kind: EvListFlush, Term: t, Bytes: n, N: 1, Part: valid})
	return true
}
