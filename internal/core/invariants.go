package core

import (
	"fmt"

	"hybridstore/internal/cache"
)

// CheckInvariants validates the manager's internal bookkeeping and returns
// the first violation found, or nil. It is exercised by tests after
// adversarial workloads; production code never needs it, but a cache
// manager whose invariants cannot be stated and checked mechanically is a
// cache manager with latent corruption bugs.
//
// Checked invariants:
//
//  1. Every resultLoc entry points at a live slot of its RB, and that slot
//     points back (mapping bijectivity, Fig 7a/7b).
//  2. Dynamic RBs are exactly the rbLRU contents; static RBs are marked.
//  3. SSD list extents are disjoint and inside the list region, and their
//     accounted sizes match the LRU accounting.
//  4. Allocator free space + live extents cover each region exactly.
//  5. L1 byte accounting equals the sum of entry sizes (delegated to the
//     cache.List internals via Used()).
//  6. validBytes never exceeds the extent, and extents obey the layout's
//     alignment rule (whole blocks in the block log).
func (m *Manager) CheckInvariants() error {
	// (1) result mapping bijectivity.
	for qid, loc := range m.resultLoc {
		if loc.qid != qid {
			return fmt.Errorf("resultLoc[%d] carries qid %d", qid, loc.qid)
		}
		if loc.rb == nil || loc.slot < 0 || loc.slot >= len(loc.rb.slots) {
			return fmt.Errorf("resultLoc[%d] has invalid slot %d", qid, loc.slot)
		}
		if loc.rb.slots[loc.slot] != loc {
			return fmt.Errorf("resultLoc[%d] slot does not point back", qid)
		}
	}

	// (2) RB bookkeeping.
	if m.rbLRU != nil {
		seen := make(map[uint64]bool)
		var rbBytes int64
		m.rbLRU.Ascend(func(e *cache.Entry[*resultBlock]) bool {
			seen[e.Value.num] = true
			rbBytes += e.Size
			return true
		})
		if rbBytes != m.rbLRU.Used() {
			return fmt.Errorf("rbLRU accounting %d != sum %d", m.rbLRU.Used(), rbBytes)
		}
		for _, rb := range m.staticRBs {
			if !rb.static {
				return fmt.Errorf("staticRBs holds non-static RB %d", rb.num)
			}
			if seen[rb.num] {
				return fmt.Errorf("RB %d both static and dynamic", rb.num)
			}
		}
	}

	// (3)+(6) list extents.
	type ext struct{ off, n int64 }
	var extents []ext
	collect := func(sl *ssdList) error {
		if sl.validBytes > sl.blockBytes {
			return fmt.Errorf("term %d validBytes %d > extent %d", sl.term, sl.validBytes, sl.blockBytes)
		}
		if sl.off < 0 || sl.off+sl.blockBytes > m.cfg.SSDListBytes {
			return fmt.Errorf("term %d extent [%d,+%d) outside region", sl.term, sl.off, sl.blockBytes)
		}
		if err := m.lay.checkListExtent(sl); err != nil {
			return err
		}
		extents = append(extents, ext{sl.off, sl.blockBytes})
		return nil
	}
	var walkErr error
	var listBytes int64
	if m.icLRU != nil {
		m.icLRU.Ascend(func(e *cache.Entry[*ssdList]) bool {
			sl := e.Value
			if sl.static {
				walkErr = fmt.Errorf("static list %d inside dynamic LRU", sl.term)
				return false
			}
			if err := collect(sl); err != nil {
				walkErr = err
				return false
			}
			listBytes += e.Size
			return true
		})
		if walkErr != nil {
			return walkErr
		}
		if listBytes != m.icLRU.Used() {
			return fmt.Errorf("icLRU accounting %d != sum %d", m.icLRU.Used(), listBytes)
		}
	}
	for term, sl := range m.icStatic {
		if sl.term != term {
			return fmt.Errorf("icStatic[%d] carries term %d", term, sl.term)
		}
		if !sl.static {
			return fmt.Errorf("icStatic[%d] not marked static", term)
		}
		if err := collect(sl); err != nil {
			return err
		}
	}
	// Extent disjointness (O(n²); n is small in tests).
	for i := 0; i < len(extents); i++ {
		for j := i + 1; j < len(extents); j++ {
			a, b := extents[i], extents[j]
			if a.off < b.off+b.n && b.off < a.off+a.n {
				return fmt.Errorf("list extents overlap: [%d,+%d) and [%d,+%d)",
					a.off, a.n, b.off, b.n)
			}
		}
	}

	// (4) allocator coverage of the list region. Quarantined extents are
	// neither live nor free: space retired after device errors still has
	// to be accounted for, or faults would masquerade as leaks.
	if m.icAlloc != nil {
		var live int64
		for _, e := range extents {
			live += e.n
		}
		if live+m.icAlloc.FreeBytes()+m.icAlloc.QuarantinedBytes() != m.cfg.SSDListBytes {
			return fmt.Errorf("list region leak: live %d + free %d + quarantined %d != %d",
				live, m.icAlloc.FreeBytes(), m.icAlloc.QuarantinedBytes(), m.cfg.SSDListBytes)
		}
	}

	// (5) L1 capacities.
	if m.rc.Used() > m.rc.Capacity() {
		return fmt.Errorf("L1 RC over capacity: %d > %d", m.rc.Used(), m.rc.Capacity())
	}
	if m.ic.Used() > m.ic.Capacity() {
		return fmt.Errorf("L1 IC over capacity: %d > %d", m.ic.Used(), m.ic.Capacity())
	}
	return nil
}
