// Package cache provides the recency-list machinery the paper's policies
// are built from: a byte-accounted LRU list with an inspectable tail
// window.
//
// Plain LRU is the paper's baseline. CBLRU and CBSLRU (§VI-C) divide the
// recency list into a "working region" and a "replace-first region" of
// window W and pick replacement victims from the tail window by cost — the
// TailWindow accessor exposes exactly that region, leaving the scoring to
// the policy layer in internal/core.
package cache

import "fmt"

// Entry is one cached item carrying a payload of type V. Entries are owned
// by the List that holds them; callers keep pointers only while the entry
// remains resident.
type Entry[V any] struct {
	// Key identifies the item (query ID, term ID, or block number).
	Key uint64
	// Size is the item's byte footprint counted against capacity.
	Size int64
	// Value is the policy-specific payload.
	Value V

	prev, next *Entry[V]
	owner      *List[V]
}

// List is a byte-accounted recency list: most recently used at the front,
// least recently used at the back. It is not safe for concurrent use; the
// cache manager serializes access.
type List[V any] struct {
	capacity int64
	used     int64
	items    map[uint64]*Entry[V]
	head     Entry[V] // sentinel: head.next is MRU
	tail     Entry[V] // sentinel: tail.prev is LRU
	// spare is the entry removed last. A full cache pairs every insert with
	// an eviction, so the next Put reuses it instead of allocating.
	spare *Entry[V]
}

// NewList builds a list with the given byte capacity (> 0).
func NewList[V any](capacity int64) *List[V] {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d", capacity))
	}
	l := &List[V]{capacity: capacity, items: make(map[uint64]*Entry[V])}
	l.head.next = &l.tail
	l.tail.prev = &l.head
	return l
}

// Capacity returns the byte capacity.
func (l *List[V]) Capacity() int64 { return l.capacity }

// Used returns the bytes currently accounted.
func (l *List[V]) Used() int64 { return l.used }

// Free returns remaining capacity in bytes.
func (l *List[V]) Free() int64 { return l.capacity - l.used }

// Len returns the number of resident entries.
func (l *List[V]) Len() int { return len(l.items) }

// Get returns the entry for key and promotes it to MRU.
func (l *List[V]) Get(key uint64) (*Entry[V], bool) {
	e, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.moveToFront(e)
	return e, true
}

// Peek returns the entry for key without promoting it.
func (l *List[V]) Peek(key uint64) (*Entry[V], bool) {
	e, ok := l.items[key]
	return e, ok
}

// Put inserts a new MRU entry. It panics if the key is already resident
// (update via Get + mutate, or RemoveEntry first) or if size exceeds capacity.
// Put does NOT evict; callers make room first so the policy layer controls
// victim selection. It returns the new entry.
func (l *List[V]) Put(key uint64, size int64, value V) *Entry[V] {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative size %d", size))
	}
	if size > l.capacity {
		panic(fmt.Sprintf("cache: item of %d bytes exceeds capacity %d", size, l.capacity))
	}
	if _, ok := l.items[key]; ok {
		panic(fmt.Sprintf("cache: duplicate key %d", key))
	}
	e := l.spare
	if e == nil {
		e = new(Entry[V])
	}
	l.spare = nil
	*e = Entry[V]{Key: key, Size: size, Value: value, owner: l}
	l.items[key] = e
	l.pushFront(e)
	l.used += size
	return e
}

// Fits reports whether an item of the given size can be inserted without
// eviction.
func (l *List[V]) Fits(size int64) bool { return l.used+size <= l.capacity }

// RemoveEntry detaches a resident entry obtained from Get/Peek/TailWindow.
// Its fields stay readable until the next Put, which may reuse it.
func (l *List[V]) RemoveEntry(e *Entry[V]) {
	if e.owner != l {
		panic("cache: entry does not belong to this list")
	}
	l.unlink(e)
	delete(l.items, e.Key)
	l.used -= e.Size
	e.owner = nil
	l.spare = e
}

// Resize changes an entry's accounted size in place (for example when a
// cached list prefix grows).
func (l *List[V]) Resize(e *Entry[V], size int64) {
	if e.owner != l {
		panic("cache: entry does not belong to this list")
	}
	if size < 0 || l.used-e.Size+size > l.capacity {
		panic(fmt.Sprintf("cache: resize to %d overflows capacity", size))
	}
	l.used += size - e.Size
	e.Size = size
}

// Touch promotes an entry to MRU.
func (l *List[V]) Touch(e *Entry[V]) {
	if e.owner != l {
		panic("cache: entry does not belong to this list")
	}
	l.moveToFront(e)
}

// LRUEntry returns the least recently used entry, or nil when empty.
func (l *List[V]) LRUEntry() *Entry[V] {
	if l.tail.prev == &l.head {
		return nil
	}
	return l.tail.prev
}

// TailWindow returns up to w entries from the LRU end, least recent first:
// the paper's "replace-first region" with window size W. The returned
// slice is a snapshot; entries remain owned by the list.
func (l *List[V]) TailWindow(w int) []*Entry[V] {
	out := make([]*Entry[V], 0, w)
	for e := l.tail.prev; e != &l.head && len(out) < w; e = e.prev {
		out = append(out, e)
	}
	return out
}

// Ascend calls fn from LRU to MRU until fn returns false.
func (l *List[V]) Ascend(fn func(*Entry[V]) bool) {
	for e := l.tail.prev; e != &l.head; {
		prev := e.prev // fn may remove e
		if !fn(e) {
			return
		}
		e = prev
	}
}

func (l *List[V]) pushFront(e *Entry[V]) {
	e.prev = &l.head
	e.next = l.head.next
	l.head.next.prev = e
	l.head.next = e
}

func (l *List[V]) unlink(e *Entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (l *List[V]) moveToFront(e *Entry[V]) {
	l.unlink(e)
	l.pushFront(e)
}
