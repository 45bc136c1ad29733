package cache

import (
	"testing"
	"testing/quick"
)

func TestPutGetPeek(t *testing.T) {
	l := NewList[string](100)
	l.Put(1, 10, "a")
	e, ok := l.Get(1)
	if !ok || e.Value != "a" || e.Size != 10 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := l.Peek(2); ok {
		t.Fatal("Peek found missing key")
	}
	if l.Used() != 10 || l.Free() != 90 || l.Len() != 1 {
		t.Fatalf("accounting wrong: used=%d free=%d len=%d", l.Used(), l.Free(), l.Len())
	}
}

func TestLRUOrder(t *testing.T) {
	l := NewList[any](100)
	l.Put(1, 1, nil)
	l.Put(2, 1, nil)
	l.Put(3, 1, nil)
	if got := l.LRUEntry().Key; got != 1 {
		t.Fatalf("LRU = %d, want 1", got)
	}
	l.Get(1) // promote
	if got := l.LRUEntry().Key; got != 2 {
		t.Fatalf("LRU after promote = %d, want 2", got)
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	l := NewList[any](100)
	l.Put(1, 1, nil)
	l.Put(2, 1, nil)
	l.Peek(1)
	if got := l.LRUEntry().Key; got != 1 {
		t.Fatalf("Peek promoted: LRU = %d", got)
	}
}

func TestTouchPromotes(t *testing.T) {
	l := NewList[any](100)
	e := l.Put(1, 1, nil)
	l.Put(2, 1, nil)
	l.Touch(e)
	if got := l.LRUEntry().Key; got != 2 {
		t.Fatalf("Touch did not promote: LRU = %d", got)
	}
}

func TestRemove(t *testing.T) {
	l := NewList[any](100)
	l.Put(1, 30, nil)
	e, _ := l.Peek(1)
	l.RemoveEntry(e)
	if e.Key != 1 || e.Size != 30 {
		t.Fatalf("removed entry no longer readable: %+v", e)
	}
	if l.Used() != 0 || l.Len() != 0 {
		t.Fatal("accounting not restored")
	}
	if _, ok := l.Peek(1); ok {
		t.Fatal("removed key still resident")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double remove succeeded")
		}
	}()
	l.RemoveEntry(e)
}

// TestPutRecyclesRemovedEntry: an insert paired with an eviction — every
// insert into a full cache — reuses the victim's entry and allocates nothing.
func TestPutRecyclesRemovedEntry(t *testing.T) {
	l := NewList[int](3)
	for k := uint64(0); k < 3; k++ {
		l.Put(k, 1, int(k))
	}
	next := uint64(3)
	allocs := testing.AllocsPerRun(100, func() {
		victim := l.LRUEntry()
		l.RemoveEntry(victim)
		if e := l.Put(next, 1, int(next)); e != victim || e.Key != next || e.Value != int(next) {
			t.Fatalf("Put(%d) = %+v, want the victim's entry reused", next, e)
		}
		next++
	})
	if allocs != 0 || l.Len() != 3 || l.Used() != 3 {
		t.Fatalf("%v allocations per paired insert, %d entries, %d bytes", allocs, l.Len(), l.Used())
	}
	for k := next - 3; k < next; k++ { // LRU to MRU order survives recycling
		if e := l.LRUEntry(); e.Key != k {
			t.Fatalf("LRU = %d, want %d", e.Key, k)
		}
		l.RemoveEntry(l.LRUEntry())
	}
}

func TestRemoveEntryForeignPanics(t *testing.T) {
	a := NewList[any](10)
	b := NewList[any](10)
	e := a.Put(1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign RemoveEntry did not panic")
		}
	}()
	b.RemoveEntry(e)
}

func TestPutDuplicatePanics(t *testing.T) {
	l := NewList[any](10)
	l.Put(1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Put did not panic")
		}
	}()
	l.Put(1, 1, nil)
}

func TestPutOversizePanics(t *testing.T) {
	l := NewList[any](10)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize Put did not panic")
		}
	}()
	l.Put(1, 11, nil)
}

func TestFits(t *testing.T) {
	l := NewList[any](10)
	l.Put(1, 6, nil)
	if !l.Fits(4) {
		t.Fatal("Fits(4) false with 4 free")
	}
	if l.Fits(5) {
		t.Fatal("Fits(5) true with 4 free")
	}
}

func TestResize(t *testing.T) {
	l := NewList[any](100)
	e := l.Put(1, 10, nil)
	l.Resize(e, 50)
	if l.Used() != 50 || e.Size != 50 {
		t.Fatalf("resize: used=%d size=%d", l.Used(), e.Size)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing resize did not panic")
		}
	}()
	l.Resize(e, 101)
}

func TestTailWindow(t *testing.T) {
	l := NewList[any](100)
	for k := uint64(1); k <= 5; k++ {
		l.Put(k, 1, nil)
	}
	w := l.TailWindow(3)
	if len(w) != 3 || w[0].Key != 1 || w[1].Key != 2 || w[2].Key != 3 {
		keys := []uint64{}
		for _, e := range w {
			keys = append(keys, e.Key)
		}
		t.Fatalf("TailWindow = %v, want [1 2 3]", keys)
	}
	if got := len(l.TailWindow(10)); got != 5 {
		t.Fatalf("oversized window returned %d", got)
	}
	empty := NewList[any](10)
	if got := len(empty.TailWindow(3)); got != 0 {
		t.Fatalf("empty list window returned %d", got)
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	l := NewList[any](100)
	for k := uint64(1); k <= 4; k++ {
		l.Put(k, 1, nil)
	}
	var seen []uint64
	l.Ascend(func(e *Entry[any]) bool {
		seen = append(seen, e.Key)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("Ascend saw %v", seen)
	}
}

func TestAscendSafeRemoval(t *testing.T) {
	l := NewList[any](100)
	for k := uint64(1); k <= 4; k++ {
		l.Put(k, 1, nil)
	}
	l.Ascend(func(e *Entry[any]) bool {
		if e.Key%2 == 1 {
			l.RemoveEntry(e)
		}
		return true
	})
	if l.Len() != 2 {
		t.Fatalf("Len = %d after removal during Ascend", l.Len())
	}
	if _, ok := l.Peek(1); ok {
		t.Fatal("removed entry still present")
	}
}

func TestEmptyListLRUEntryNil(t *testing.T) {
	if NewList[any](10).LRUEntry() != nil {
		t.Fatal("empty list LRUEntry not nil")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewList[any](0)
}

func TestAccountingProperty(t *testing.T) {
	// Property: Used always equals the sum of resident entry sizes, and
	// never exceeds capacity as long as callers respect Fits.
	f := func(ops []uint16) bool {
		l := NewList[any](1 << 16)
		sizes := make(map[uint64]int64)
		var key uint64
		for _, raw := range ops {
			switch raw % 3 {
			case 0: // put
				size := int64(raw%512) + 1
				if l.Fits(size) {
					key++
					l.Put(key, size, nil)
					sizes[key] = size
				}
			case 1: // remove LRU
				if e := l.LRUEntry(); e != nil {
					l.RemoveEntry(e)
					delete(sizes, e.Key)
				}
			case 2: // touch random-ish
				if e, ok := l.Peek(uint64(raw) % (key + 1)); ok {
					l.Touch(e)
				}
			}
			var want int64
			for _, s := range sizes {
				want += s
			}
			if l.Used() != want || l.Used() > l.Capacity() || l.Len() != len(sizes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
