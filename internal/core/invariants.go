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
//  3. SSD list extents are disjoint and inside the list region, dynamic ones
//     are exactly the icLRU contents with matching keys and sizes, and static
//     ones add up to staticListTaken.
//  4. Allocator free space + live extents cover each region exactly.
//  5. The L1 caches are within capacity, and L1 list bytes plus the list
//     write buffer are within MemListBytes (the buffer is paid-for memory).
//  6. Extents obey the layout's alignment rule (whole blocks in the block
//     log); the lists of one are disjoint, inside it, in offset order and
//     mapped back by icDyn or icStatic, which map nothing else but the
//     buffered prefixes — each held in memory, not yet placed, and summing to
//     listBufBytes.
//  7. Every free entry buffer is whole, listed once and held by neither L1 nor
//     the write buffer; all of them fit a full L1, a full write buffer and one.
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

	// (3)+(6) list extents and the term maps.
	var extents []*listExtent
	var staticBytes int64
	mapped := map[bool]int{} // lists found inside extents, by extent.static
	collect := func(x *listExtent) error {
		if x.off < 0 || x.off+x.bytes > m.cfg.SSDListBytes {
			return fmt.Errorf("list extent [%d,+%d) outside region", x.off, x.bytes)
		}
		if err := m.lay.checkListExtent(x); err != nil {
			return err
		}
		if len(x.lists) == 0 {
			return fmt.Errorf("list extent [%d,+%d) holds no live list", x.off, x.bytes)
		}
		end := x.off
		for _, sl := range x.lists {
			switch {
			case sl.ext != x || sl.data != nil || m.listsByTerm(x.static)[sl.term] != sl:
				return fmt.Errorf("term %d in extent [%d,+%d) not mapped back", sl.term, x.off, x.bytes)
			case sl.validBytes <= 0 || sl.off < end || sl.off+sl.validBytes > x.off+x.bytes:
				return fmt.Errorf("term %d at [%d,+%d) overlaps its neighbour or leaves extent [%d,+%d)",
					sl.term, sl.off, sl.validBytes, x.off, x.bytes)
			}
			end = sl.off + sl.validBytes
		}
		mapped[x.static] += len(x.lists)
		extents = append(extents, x)
		return nil
	}
	if m.icLRU != nil {
		var walkErr error
		var listBytes int64
		m.icLRU.Ascend(func(e *cache.Entry[*listExtent]) bool {
			x := e.Value
			if x.static || e.Key != uint64(x.off) || e.Size != x.bytes {
				walkErr = fmt.Errorf("list extent [%d,+%d) in icLRU as key %d, %d bytes, static %v",
					x.off, x.bytes, e.Key, e.Size, x.static)
			} else {
				walkErr = collect(x)
			}
			listBytes += e.Size
			return walkErr == nil
		})
		if walkErr != nil {
			return walkErr
		}
		if listBytes != m.icLRU.Used() {
			return fmt.Errorf("icLRU accounting %d != sum %d", m.icLRU.Used(), listBytes)
		}
	}
	for term, sl := range m.icStatic {
		if sl.term != term || sl.ext == nil || !sl.ext.static {
			return fmt.Errorf("icStatic[%d] carries term %d outside a static extent", term, sl.term)
		}
		if len(sl.ext.lists) > 0 && sl.ext.lists[0] != sl {
			continue // its extent is collected once, from its first list
		}
		if err := collect(sl.ext); err != nil {
			return err
		}
		staticBytes += sl.ext.bytes
	}
	if staticBytes != m.staticListTaken {
		return fmt.Errorf("static extents hold %d bytes, staticListTaken %d", staticBytes, m.staticListTaken)
	}
	var buffered int64
	for _, sl := range m.listBuf {
		if sl.ext != nil || int64(len(sl.data)) != sl.validBytes || m.icDyn[sl.term] != sl {
			return fmt.Errorf("buffered term %d placed, without its bytes or not mapped back", sl.term)
		}
		buffered += sl.validBytes
	}
	if buffered != m.listBufBytes || buffered > m.listBufCap {
		return fmt.Errorf("list write buffer holds %d bytes, accounted %d, capacity %d",
			buffered, m.listBufBytes, m.listBufCap)
	}
	if mapped[false]+len(m.listBuf) != len(m.icDyn) || mapped[true] != len(m.icStatic) {
		return fmt.Errorf("term maps hold %d dynamic and %d static lists, extents and buffer %d and %d",
			len(m.icDyn), len(m.icStatic), mapped[false]+len(m.listBuf), mapped[true])
	}
	// Extent disjointness (O(n²); n is small in tests).
	for i, a := range extents {
		for _, b := range extents[i+1:] {
			if a.off < b.off+b.bytes && b.off < a.off+a.bytes {
				return fmt.Errorf("list extents overlap: [%d,+%d) and [%d,+%d)",
					a.off, a.bytes, b.off, b.bytes)
			}
		}
	}

	// (4) allocator coverage of the list region. Quarantined extents are
	// neither live nor free: space retired after device errors still has
	// to be accounted for, or faults would masquerade as leaks.
	if m.icAlloc != nil {
		var live int64
		for _, x := range extents {
			live += x.bytes
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
	if m.ic.Used() > m.ic.Capacity() || m.ic.Used()+m.listBufBytes > m.cfg.MemListBytes {
		return fmt.Errorf("L1 IC over capacity: %d > %d, or with %d buffered over %d",
			m.ic.Used(), m.ic.Capacity(), m.listBufBytes, m.cfg.MemListBytes)
	}

	// (7) entry buffers, by the address of their first byte.
	holder := make(map[*byte]string)
	m.rc.Ascend(func(e *cache.Entry[memResult]) bool {
		holder[&e.Value.data[0]] = "L1"
		return true
	})
	for _, b := range m.writeBuf {
		holder[&b.data[0]] = "the write buffer"
	}
	for _, buf := range m.freeEntries {
		if int64(len(buf)) != m.cfg.ResultEntryBytes {
			return fmt.Errorf("free entry buffer of %d bytes, want %d", len(buf), m.cfg.ResultEntryBytes)
		}
		if by, ok := holder[&buf[0]]; ok {
			return fmt.Errorf("free entry buffer is also held by %s", by)
		}
		holder[&buf[0]] = "the free list"
	}
	if bound := int(m.cfg.MemResultBytes/m.cfg.ResultEntryBytes) + m.entriesPerRB + 1; len(holder) > bound {
		return fmt.Errorf("%d entry buffers in existence, bound %d", len(holder), bound)
	}
	return nil
}
