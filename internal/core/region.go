package core

import (
	"slices"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// ssdEntry is one L2 entry, a result entry or a list prefix, found by its key
// (query ID or term ID) in its region's maps: stored in the SSD cache file
// inside an extent (Fig 7a, 7c), or waiting in its region's write buffer
// first (ext nil, data set), where lookups serve it from memory.
type ssdEntry struct {
	key   uint64
	ext   *extent // nil while the entry waits in the write buffer
	off   int64   // region offset of the entry's first byte
	bytes int64   // bytes present: ResultEntryBytes, or the prefix's length
	state entryState
	// requeued marks a buffered result whose block write already failed
	// once; a second failure drops it (bounded retries keep the buffer from
	// holding unflushable data forever).
	requeued bool
	loadedAt time.Duration // age of the content, for ResultTTL and ListTTL
	data     []byte        // the entry or prefix buffer, until it is on the SSD
}

// extent is the placement and replacement unit of an SSD region (Figs 7b, 11,
// 13): under the block log a 128 KB result block of entriesPerRB fixed-size
// slots, or SC whole blocks holding one list prefix of a block or more or
// several sub-block prefixes packed end to end; under the LRU baseline the
// bytes of one entry. An entry that is superseded or expires leaves dead
// bytes behind. A list extent goes when its last live list does; a result
// block stays until it is replaced, its empty slots counted by IREN.
type extent struct {
	off, bytes int64
	static     bool        // holds CBSLRU pins: never replaced, not in the recency list
	entries    []*ssdEntry // live entries, by ascending offset
}

// normalBytes is the valid, non-replaceable payload an overwrite of the
// extent would lose: for a result block, entriesPerRB − IREN entries (Fig 11).
func (x *extent) normalBytes() int64 {
	var n int64
	for _, e := range x.entries {
		if e.state == stateNormal {
			n += e.bytes
		}
	}
	return n
}

// fill returns the extent-relative offset just past the last live entry.
func (x *extent) fill() int64 {
	if len(x.entries) == 0 {
		return 0
	}
	last := x.entries[len(x.entries)-1]
	return last.off + last.bytes - x.off
}

// region is one of the SSD cache file's two regions, results then lists. Its
// dynamic extents are in the recency list, keyed by offset; pins live in
// static extents that only the static map reaches.
//
// buf is the region's write buffer (§VI-B, Fig 10b): dynamic entries that
// wait in memory, in the dynamic map like those on the SSD, until they go out
// together as one whole block (flush) — results entriesPerRB at a time, list
// prefixes shorter than a block once the next would overflow bufCap. A
// result keeps the entry buffer L1 evicted it in, memory outside L1's
// budget; the list buffer's bufCap is memory taken out of the L1 list budget.
type region struct {
	base        int64                // device offset of the region's first byte
	lru         *cache.List[*extent] // nil when the region has no bytes
	alloc       *storage.Allocator
	dyn, static map[uint64]*ssdEntry
	staticOpen  *extent // the static extent pins are appended to
	staticTaken int64   // bytes of the region static extents hold
	buf         []*ssdEntry
	bufBytes    int64 // bytes the buffered entries hold
	bufCap      int64 // list region only: the most bufBytes may reach
}

// keys returns the map that reaches the entries of static or of dynamic
// extents.
func (r *region) keys(static bool) map[uint64]*ssdEntry {
	if static {
		return r.static
	}
	return r.dyn
}

// lookup returns key's dynamic entry, else its static one.
func (r *region) lookup(key uint64) *ssdEntry {
	if e := r.dyn[key]; e != nil {
		return e
	}
	return r.static[key]
}

// push appends a waiting entry to the write buffer.
func (r *region) push(e *ssdEntry) {
	r.buf = append(r.buf, e)
	r.bufBytes += e.bytes
}

// unbuffer takes a waiting entry out of region r, from its write buffer and
// dynamic map, and frees its memory.
func (m *Manager) unbuffer(r *region, e *ssdEntry) {
	i := slices.Index(r.buf, e)
	r.buf = slices.Delete(r.buf, i, i+1)
	r.bufBytes -= e.bytes
	delete(r.dyn, e.key)
	m.release(r, e)
}

// release frees the buffer an entry of region r held in memory, once the
// SSD holds its bytes or the cache gives it up: a result's entry buffer, a
// list's prefix buffer.
func (m *Manager) release(r *region, e *ssdEntry) {
	if r == &m.lists {
		m.freePrefix(e.data)
	} else {
		m.freeEntry(e.data)
	}
	e.data = nil
}

// newRegion returns an empty region of n bytes at device offset base.
func newRegion(base, n int64) region {
	r := region{base: base, dyn: make(map[uint64]*ssdEntry), static: make(map[uint64]*ssdEntry)}
	if n > 0 {
		r.lru = cache.NewList[*extent](n)
		r.alloc = storage.NewAllocator(n)
	}
	return r
}

// unmap takes an extent out of region r: it leaves the recency list and
// every entry it still holds is unmapped; a list is counted and evented as it
// goes. What becomes of its bytes — freed, trimmed, overwritten in place,
// quarantined — is the caller's business.
func (m *Manager) unmap(r *region, x *extent) {
	if e, ok := r.lru.Peek(uint64(x.off)); ok && e.Value == x {
		r.lru.RemoveEntry(e)
	}
	for _, e := range x.entries {
		delete(r.keys(x.static), e.key)
		if r == &m.lists {
			m.emit(Event{Kind: EvListEvict, Term: workload.TermID(e.key), Level: LevelSSD})
		}
	}
	x.entries = nil
}

// drop removes a dynamic extent with the entries it holds and returns its
// bytes to the allocator, trimmed on the device when trim is set.
func (m *Manager) drop(r *region, x *extent, trim bool) {
	m.unmap(r, x)
	r.alloc.Free(x.off, x.bytes)
	if trim {
		m.ssdTrim(r.base+x.off, x.bytes)
	}
	m.retired(r)
}

// quarantineExtent retires an extent whose device range failed a read or a
// write: every entry in it is unmapped (lists fall back to the HDD, results
// are recomputed) and the whole extent is quarantined instead of freed, and
// not trimmed — the range is abandoned, not recycled. A list pin that cannot
// be read is worthless, so static list extents go the same way.
func (m *Manager) quarantineExtent(r *region, x *extent) {
	m.unmap(r, x)
	if x.static {
		r.staticTaken -= x.bytes
		if r.staticOpen == x {
			r.staticOpen = nil
		}
	}
	m.quarantine(r.alloc, x.off, x.bytes)
	m.retired(r)
}

// quarantine retires an allocator extent whose device range failed and
// accounts the lost capacity.
func (m *Manager) quarantine(a *storage.Allocator, off, n int64) {
	a.Quarantine(off, n)
	m.emit(Event{Kind: EvQuarantine, Bytes: n})
}

// retired counts an extent that just left the result region, in the unit
// the layout places results in (lists are counted one by one, in unmap).
func (m *Manager) retired(r *region) {
	if r == &m.results {
		m.emit(Event{Kind: m.lay.resultRetireKind(), Level: LevelSSD})
	}
}

// victim returns the extent of the replace-first window that is bytes long
// and holds the fewest normal bytes, the least recent on ties, or nil: for
// result blocks, all one block long, the largest IREN of Fig 11.
func victim(window []*cache.Entry[*extent], bytes int64) *extent {
	var v *extent
	var least int64
	for _, e := range window {
		if x := e.Value; x.bytes == bytes {
			if nb := x.normalBytes(); v == nil || nb < least {
				v, least = x, nb
			}
		}
	}
	return v
}

// pin appends a static entry for key to region r (CBSLRU): at the fill
// cursor of the open static extent while n more bytes fit there, else at the
// start of a new extent of scBytes, opened while the static budget allows
// it. Pins are never replaced, so they pack without a write buffer. The write
// is n bytes of staging, the entry's valid bytes first: fill writes those,
// and an error of its gives up. A failed write leaves a result slot open for
// a retry — the breaker stops a failing device from being pinned against
// repeatedly — and quarantines a list's extent, with the pins it held.
func (m *Manager) pin(r *region, key uint64, n, scBytes, valid int64, fill func(p []byte) error) bool {
	x := r.staticOpen
	fresh := x == nil || x.fill()+n > x.bytes
	if fresh && r.staticTaken+scBytes > m.staticBudget(r) {
		return false
	}
	p := m.stagingBuf(n, valid)
	if fill(p[:valid]) != nil {
		return false
	}
	if fresh {
		off, ok := r.alloc.AllocAligned(scBytes, m.cfg.BlockBytes)
		if !ok {
			return false
		}
		x = &extent{off: off, bytes: scBytes, static: true}
		r.staticTaken += scBytes
		if n < scBytes {
			r.staticOpen = x
		}
	}
	e := &ssdEntry{key: key, ext: x, off: x.off + x.fill(), bytes: valid}
	if err := m.ssdWrite(p, r.base+e.off); err != nil {
		if r == &m.lists {
			m.quarantineExtent(r, x)
		} else {
			r.staticOpen = x
		}
		return false
	}
	x.entries = append(x.entries, e)
	r.static[key] = e
	return true
}

// staticBudget returns the byte budget of region r's static partition.
func (m *Manager) staticBudget(r *region) int64 {
	if !m.UsesStaticPartition() || r.lru == nil {
		return 0
	}
	return int64(float64(r.alloc.Size()) * m.cfg.StaticFraction)
}
