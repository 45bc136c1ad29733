package core

import (
	"cmp"
	"fmt"
	"slices"

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
//  1. In each SSD region, results then lists, extents are disjoint and inside
//     the region; dynamic ones are exactly the recency list's contents, with
//     matching keys and sizes, and static ones add up to the static bytes
//     taken.
//  2. Allocator free space + live extents + quarantined space cover each
//     region exactly.
//  3. The L1 caches are within capacity, and L1 list bytes plus the list
//     write buffer are within MemListBytes (the buffer is paid-for memory).
//  4. Extents obey the layout's alignment rule (whole blocks in the block
//     log), and a list extent holds a live list (a result block may stand
//     empty: its slots count for IREN). The entries of an extent are
//     disjoint, inside it, in offset order and mapped back by their key in
//     the region's dynamic or static map, which map nothing else but the
//     region's write buffer — each entry held in memory, not yet placed, in
//     the dynamic map, and together summing to bufBytes, which the list
//     region's bufCap bounds.
//  5. Every free entry buffer is whole, listed once and held by neither L1 nor
//     the result write buffer; all of them fit a full L1, a full write buffer
//     and one.
//  6. Every L1 prefix, buffered prefix and free prefix buffer has exactly one
//     holder; a free one can serve its size class, and together they hold at
//     most maxFreePrefixBytes.
func (m *Manager) CheckInvariants() error {
	// (1), (2) and (4), over both regions.
	if err := m.checkRegion(&m.results); err != nil {
		return fmt.Errorf("result region: %w", err)
	}
	if err := m.checkRegion(&m.lists); err != nil {
		return fmt.Errorf("list region: %w", err)
	}

	// (3) L1 capacities.
	if m.rc.Used() > m.rc.Capacity() {
		return fmt.Errorf("L1 RC over capacity: %d > %d", m.rc.Used(), m.rc.Capacity())
	}
	if m.ic.Used() > m.ic.Capacity() || m.ic.Used()+m.lists.bufBytes > m.cfg.MemListBytes {
		return fmt.Errorf("L1 IC over capacity: %d > %d, or with %d buffered over %d",
			m.ic.Used(), m.ic.Capacity(), m.lists.bufBytes, m.cfg.MemListBytes)
	}

	// (5) entry buffers, by the address of their first byte.
	holder := make(map[*byte]string)
	m.rc.Ascend(func(e *cache.Entry[memResult]) bool {
		holder[&e.Value.data[0]] = "L1"
		return true
	})
	for _, e := range m.results.buf {
		holder[&e.data[0]] = "the write buffer"
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

	// (6) list prefix buffers, by the address of their backing array.
	type held struct {
		buf []byte
		by  string
	}
	var prefixes []held
	m.ic.Ascend(func(e *cache.Entry[memList]) bool {
		prefixes = append(prefixes, held{e.Value.prefix, "L1"})
		return true
	})
	for _, e := range m.lists.buf {
		prefixes = append(prefixes, held{e.data, "the list write buffer"})
	}
	var free int64
	for c, class := range m.freePrefixes {
		for _, buf := range class {
			if int64(cap(buf)) < min(1<<c, m.prefixCap()) {
				return fmt.Errorf("free prefix buffer of capacity %d in class %d", cap(buf), c)
			}
			prefixes = append(prefixes, held{buf, "the free pool"})
			free += int64(cap(buf))
		}
	}
	if free != m.freePrefixBytes || free > m.maxFreePrefixBytes() {
		return fmt.Errorf("free prefix buffers hold %d bytes, accounted %d, bound %d",
			free, m.freePrefixBytes, m.maxFreePrefixBytes())
	}
	clear(holder)
	for _, h := range prefixes {
		p := &h.buf[:1][0]
		if other, ok := holder[p]; ok {
			return fmt.Errorf("list prefix buffer held by %s and %s", other, h.by)
		}
		holder[p] = h.by
	}
	return nil
}

// checkRegion checks clauses 1, 2 and 4 over region r and its write buffer.
func (m *Manager) checkRegion(r *region) error {
	if r.lru == nil {
		if n := len(r.dyn) + len(r.static) + len(r.buf); n != 0 {
			return fmt.Errorf("%d entries mapped in a region of no bytes", n)
		}
		return nil
	}
	var buffered int64
	for _, e := range r.buf {
		if e.ext != nil || int64(len(e.data)) != e.bytes || r.dyn[e.key] != e {
			return fmt.Errorf("buffered key %d placed, without its bytes or not mapped back", e.key)
		}
		buffered += e.bytes
	}
	if buffered != r.bufBytes || (r == &m.lists && buffered > r.bufCap) {
		return fmt.Errorf("write buffer holds %d bytes, accounted %d, capacity %d",
			buffered, r.bufBytes, r.bufCap)
	}
	var extents []*extent
	mapped := map[bool]int{} // entries found inside extents, by extent.static
	collect := func(x *extent) error {
		if x.off < 0 || x.off+x.bytes > r.alloc.Size() {
			return fmt.Errorf("extent [%d,+%d) outside the region", x.off, x.bytes)
		}
		if err := m.lay.checkExtent(x); err != nil {
			return err
		}
		if len(x.entries) == 0 && r == &m.lists {
			return fmt.Errorf("list extent [%d,+%d) holds no live list", x.off, x.bytes)
		}
		end := x.off
		for _, e := range x.entries {
			switch {
			case e.ext != x || e.data != nil || r.keys(x.static)[e.key] != e:
				return fmt.Errorf("key %d in extent [%d,+%d) not mapped back", e.key, x.off, x.bytes)
			case e.bytes <= 0 || e.off < end || e.off+e.bytes > x.off+x.bytes:
				return fmt.Errorf("key %d at [%d,+%d) overlaps its neighbour or leaves extent [%d,+%d)",
					e.key, e.off, e.bytes, x.off, x.bytes)
			}
			end = e.off + e.bytes
		}
		mapped[x.static] += len(x.entries)
		extents = append(extents, x)
		return nil
	}
	var walkErr error
	var lruBytes int64
	r.lru.Ascend(func(e *cache.Entry[*extent]) bool {
		x := e.Value
		if x.static || e.Key != uint64(x.off) || e.Size != x.bytes {
			walkErr = fmt.Errorf("extent [%d,+%d) in the recency list as key %d, %d bytes, static %v",
				x.off, x.bytes, e.Key, e.Size, x.static)
		} else {
			walkErr = collect(x)
		}
		lruBytes += e.Size
		return walkErr == nil
	})
	if walkErr != nil {
		return walkErr
	}
	if lruBytes != r.lru.Used() {
		return fmt.Errorf("recency list accounting %d != sum %d", r.lru.Used(), lruBytes)
	}
	var staticBytes int64
	for key, e := range r.static {
		if e.key != key || e.ext == nil || !e.ext.static {
			return fmt.Errorf("static map [%d] carries key %d outside a static extent", key, e.key)
		}
		if len(e.ext.entries) > 0 && e.ext.entries[0] != e {
			continue // its extent is collected once, from its first entry
		}
		if err := collect(e.ext); err != nil {
			return err
		}
		staticBytes += e.ext.bytes
	}
	if x := r.staticOpen; x != nil && len(x.entries) == 0 {
		// A result block whose first pin failed to write: its slot is open.
		if !x.static {
			return fmt.Errorf("open static extent [%d,+%d) not static", x.off, x.bytes)
		}
		if err := collect(x); err != nil {
			return err
		}
		staticBytes += x.bytes
	}
	if staticBytes != r.staticTaken {
		return fmt.Errorf("static extents hold %d bytes, %d taken", staticBytes, r.staticTaken)
	}
	if mapped[false]+len(r.buf) != len(r.dyn) || mapped[true] != len(r.static) {
		return fmt.Errorf("maps hold %d dynamic and %d static entries, extents and buffer %d and %d",
			len(r.dyn), len(r.static), mapped[false]+len(r.buf), mapped[true])
	}
	slices.SortFunc(extents, func(a, b *extent) int { return cmp.Compare(a.off, b.off) })
	var live int64
	for i, x := range extents {
		if i > 0 && extents[i-1].off+extents[i-1].bytes > x.off {
			return fmt.Errorf("extents overlap: [%d,+%d) and [%d,+%d)",
				extents[i-1].off, extents[i-1].bytes, x.off, x.bytes)
		}
		live += x.bytes
	}
	// Quarantined extents are neither live nor free: space retired after
	// device errors still has to be accounted for, or faults would
	// masquerade as leaks.
	if free, q := r.alloc.FreeBytes(), r.alloc.QuarantinedBytes(); live+free+q != r.alloc.Size() {
		return fmt.Errorf("leak: live %d + free %d + quarantined %d != %d", live, free, q, r.alloc.Size())
	}
	return nil
}
