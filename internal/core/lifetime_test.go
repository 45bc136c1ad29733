package core

// Tests for the two buffer-lifetime rules of the cache-miss path: an L1
// prefix is extended in place inside spare capacity, and every padded extent
// bound for the SSD is assembled in one reused staging buffer.

import (
	"bytes"
	"testing"

	"hybridstore/internal/cache"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// noVictim is a layout that finds nothing to evict from L1, so an extension
// that needs room cannot get it.
type noVictim struct{ layout }

func (noVictim) chooseL1ListVictim(*cache.Entry[*memList]) *cache.Entry[*memList] { return nil }

// TestFailedPrefixExtensionLeavesEntryUntouched: the bytes of an extension
// are written past len(prefix) before the cache is asked for room. When it
// has none, the entry must be exactly what it was — same bytes, same length,
// same accounted size — and reads must keep returning index bytes, both
// while extensions keep failing and once one finally succeeds over the
// capacity the failed attempts wrote into.
func TestFailedPrefixExtensionLeavesEntryUntouched(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 128 << 10
	cfg.PrefetchQuantum = -1 // prefix lengths are exactly what was read
	f := newFixture(t, cfg)
	term := workload.TermID(0)
	const chunk = 8 << 10

	f.readSome(t, term, chunk)
	f.m.ReadListRange(term, chunk, make([]byte, chunk)) // grows capacity past len
	for i := 0; f.m.ic.Free() >= chunk; i++ {
		f.readSome(t, workload.TermID(10+i), chunk)
	}
	e, ok := f.m.ic.Peek(uint64(term))
	if !ok {
		t.Fatal("term 0 evicted while filling L1")
	}
	l1 := e.Value
	have := int64(len(l1.prefix))
	before := append([]byte(nil), l1.prefix...)
	used := f.m.ic.Used()

	lay := f.m.lay
	f.m.lay = noVictim{lay}
	for attempt := 0; attempt < 3; attempt++ {
		got := make([]byte, have+chunk)
		if err := f.m.ReadListRange(term, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.wantList(t, term, 0, have+chunk)) {
			t.Fatalf("attempt %d: read across a failed extension returned wrong bytes", attempt)
		}
		if int64(len(l1.prefix)) != have || !bytes.Equal(l1.prefix, before) {
			t.Fatalf("attempt %d: failed extension changed the prefix (len %d, was %d)", attempt, len(l1.prefix), have)
		}
		if e.Size != have || f.m.ic.Used() != used {
			t.Fatalf("attempt %d: failed extension changed the accounting: entry %d (was %d), used %d (was %d)",
				attempt, e.Size, have, f.m.ic.Used(), used)
		}
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	f.m.lay = lay
	got := make([]byte, have+chunk)
	if err := f.m.ReadListRange(term, 0, got); err != nil {
		t.Fatal(err)
	}
	if int64(len(l1.prefix)) != have+chunk || e.Size != have+chunk {
		t.Fatalf("extension with room available: prefix %d bytes, entry %d, want %d", len(l1.prefix), e.Size, have+chunk)
	}
	if want := f.wantList(t, term, 0, have+chunk); !bytes.Equal(got, want) || !bytes.Equal(l1.prefix, want) {
		t.Fatal("prefix extended after failed attempts holds wrong bytes")
	}
	if c, limit := int64(cap(l1.prefix)), f.m.ic.Capacity()/maxL1EntryShare; c > limit || c > 2*(have+chunk) {
		t.Fatalf("prefix capacity %d for %d bytes (entry cap %d): want at most double, and at most the cap", c, have+chunk, limit)
	}
}

// checkExtentOnDevice reads extent x back from dev and requires exactly what
// the packer promises to have written: every list's prefix at its offset,
// index-equal, and zeros from the end of the last one to the end of the
// extent. Exact only while no list of x has been dropped, so tests call it
// from the EvListFlush sink, right after the write.
func checkExtentOnDevice(t *testing.T, f *fixture, dev storage.Device, x *listExtent) {
	t.Helper()
	got := make([]byte, x.bytes)
	if _, err := dev.ReadAt(got, f.m.icBase()+x.off); err != nil {
		t.Fatal(err)
	}
	for _, sl := range x.lists {
		if !bytes.Equal(got[sl.off-x.off:][:sl.validBytes], f.wantList(t, sl.term, 0, sl.validBytes)) {
			t.Errorf("term %d: extent [%d,+%d) does not hold the list prefix at %d", sl.term, x.off, x.bytes, sl.off)
		}
	}
	for i, b := range got[x.fill():] {
		if b != 0 {
			t.Errorf("extent [%d,+%d): pad byte %d is %#x: an earlier extent's bytes reached the SSD",
				x.off, x.bytes, x.fill()+int64(i), b)
			break
		}
	}
}

// TestStagingBufferPadsEveryExtentWithZeros writes well filled and lightly
// filled blocks alternately through a device that fails half its writes.
// Every block is assembled in the same staging buffer, so a light one follows
// a full one — written or failed — into memory that still holds the full
// one's bytes; what reaches the SSD must be the prefixes and then zeros.
func TestStagingBufferPadsEveryExtentWithZeros(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.SSDListBytes = 16 << 20
	cfg.BreakerThreshold = -1 // keep writing through the failures
	var fd *storage.FaultyDevice
	f := newFaultFixture(t, cfg, func(inner storage.Device) storage.Device {
		fd = storage.NewFaultyDevice(inner, storage.FaultSpec{Seed: 9, Write: storage.OpFaults{ErrProb: 0.5}}, nil)
		return fd
	})
	full, light := 0, 0
	f.m.SetEventSink(func(e Event) {
		if e.Kind != EvListFlush {
			return
		}
		x := f.m.icDyn[e.Term].ext
		checkExtentOnDevice(t, f, fd.Inner(), x)
		if pad := x.bytes - x.fill(); pad > 64<<10 {
			light++
		} else if pad < 32<<10 {
			full++
		}
	})
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			f.readSome(t, workload.TermID(5+40*(round%2)+i), 32<<10)
			if b := f.m.listBufBytes; i%3 == 0 && b > 0 && b < 24<<10 {
				f.m.flushListBuffer() // the little a full block left over
			}
		}
	}
	if s := f.m.Stats(); s.SSDWriteErrors == 0 || full == 0 || light == 0 {
		t.Fatalf("%d failed writes, %d well filled and %d lightly filled blocks written: the test needs all three",
			s.SSDWriteErrors, full, light)
	}
}
