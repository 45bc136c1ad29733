package storage

import (
	"fmt"
	"sort"
)

// Allocator manages byte extents inside a device's address space with
// first-fit allocation and free-extent coalescing. The index layout uses it
// to place posting lists on the backing store, and the SSD cache file uses
// it to place result blocks and cached list prefixes.
//
// Allocator is not safe for concurrent use.
type Allocator struct {
	size        int64
	free        []extent // sorted by offset, non-adjacent (always coalesced)
	quarantined []extent // retired extents, never returned to the free pool
}

type extent struct {
	off int64
	len int64
}

// NewAllocator manages [0, size).
func NewAllocator(size int64) *Allocator {
	if size < 0 {
		panic("storage: negative allocator size")
	}
	a := &Allocator{size: size}
	if size > 0 {
		a.free = []extent{{0, size}}
	}
	return a
}

// Size returns the managed address-space size.
func (a *Allocator) Size() int64 { return a.size }

// FreeBytes returns the total unallocated space.
func (a *Allocator) FreeBytes() int64 {
	var n int64
	for _, e := range a.free {
		n += e.len
	}
	return n
}

// LargestFree returns the size of the largest free extent.
func (a *Allocator) LargestFree() int64 {
	var n int64
	for _, e := range a.free {
		if e.len > n {
			n = e.len
		}
	}
	return n
}

// Alloc reserves n bytes and returns the extent offset. The second result
// is false when no single free extent can hold n bytes (external
// fragmentation counts: the allocator never splits an allocation).
func (a *Allocator) Alloc(n int64) (int64, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("storage: Alloc(%d)", n))
	}
	for i := range a.free {
		if a.free[i].len >= n {
			off := a.free[i].off
			a.free[i].off += n
			a.free[i].len -= n
			if a.free[i].len == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return off, true
		}
	}
	return 0, false
}

// AllocAligned reserves n bytes at an offset that is a multiple of align.
func (a *Allocator) AllocAligned(n, align int64) (int64, bool) {
	if n <= 0 || align <= 0 {
		panic(fmt.Sprintf("storage: AllocAligned(%d,%d)", n, align))
	}
	for i := range a.free {
		e := a.free[i]
		aligned := (e.off + align - 1) / align * align
		pad := aligned - e.off
		if e.len >= pad+n {
			// Carve [aligned, aligned+n) out of e.
			a.free = append(a.free[:i], a.free[i+1:]...)
			if pad > 0 {
				a.insertFree(extent{e.off, pad})
			}
			if rest := e.len - pad - n; rest > 0 {
				a.insertFree(extent{aligned + n, rest})
			}
			return aligned, true
		}
	}
	return 0, false
}

// Free returns the extent [off, off+n) to the free pool, coalescing with
// neighbours. Freeing an unallocated or overlapping range panics: that is
// always a bookkeeping bug in the caller.
func (a *Allocator) Free(off, n int64) {
	if n <= 0 || off < 0 || off+n > a.size {
		panic(fmt.Sprintf("storage: Free(%d,%d) out of range", off, n))
	}
	for _, e := range a.free {
		if off < e.off+e.len && e.off < off+n {
			panic(fmt.Sprintf("storage: double free of [%d,+%d)", off, n))
		}
	}
	a.insertFree(extent{off, n})
}

func (a *Allocator) insertFree(e extent) {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= e.off })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
	// Coalesce with successor then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].len == a.free[i+1].off {
		a.free[i].len += a.free[i+1].len
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].len == a.free[i].off {
		a.free[i-1].len += a.free[i].len
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// Quarantine retires the currently-allocated extent [off, off+n): instead
// of returning to the free pool it is withheld from all future allocations.
// The cache manager quarantines extents whose device range failed, so a bad
// region is not immediately handed back out. Quarantining a range that
// overlaps the free pool panics, like a double Free would.
func (a *Allocator) Quarantine(off, n int64) {
	if n <= 0 || off < 0 || off+n > a.size {
		panic(fmt.Sprintf("storage: Quarantine(%d,%d) out of range", off, n))
	}
	for _, e := range a.free {
		if off < e.off+e.len && e.off < off+n {
			panic(fmt.Sprintf("storage: quarantine of free range [%d,+%d)", off, n))
		}
	}
	for _, e := range a.quarantined {
		if off < e.off+e.len && e.off < off+n {
			panic(fmt.Sprintf("storage: double quarantine of [%d,+%d)", off, n))
		}
	}
	a.quarantined = append(a.quarantined, extent{off, n})
}

// QuarantinedBytes returns the total space retired by Quarantine.
func (a *Allocator) QuarantinedBytes() int64 {
	var n int64
	for _, e := range a.quarantined {
		n += e.len
	}
	return n
}

// FragmentCount returns the number of disjoint free extents; 1 means the
// free space is fully contiguous.
func (a *Allocator) FragmentCount() int { return len(a.free) }
