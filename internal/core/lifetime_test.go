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

// noVictim is a replacement policy that finds nothing to evict from L1, so
// an extension that needs room cannot get it.
type noVictim struct{ ReplacementPolicy }

func (noVictim) ChooseL1ListVictim(*cache.Entry[*memList]) *cache.Entry[*memList] { return nil }

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

	policy := f.m.repl
	f.m.repl = noVictim{policy}
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

	f.m.repl = policy
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

// TestStagingBufferPadsEveryExtentWithZeros flushes long and short list
// prefixes alternately through a device that fails half its writes. Every
// extent is assembled in the same staging buffer, so a short prefix follows
// a long one — written or failed — into memory that still holds the long
// one's bytes; what reaches the SSD must be the prefix and then zeros.
func TestStagingBufferPadsEveryExtentWithZeros(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 256 << 10
	cfg.SSDListBytes = 16 << 20
	cfg.BreakerThreshold = -1 // keep writing through the failures
	var fd *storage.FaultyDevice
	f := newFaultFixture(t, cfg, func(inner storage.Device) storage.Device {
		fd = storage.NewFaultyDevice(inner, storage.FaultSpec{Seed: 9, Write: storage.OpFaults{ErrProb: 0.5}}, nil)
		return fd
	})
	for round := 0; round < 4; round++ {
		for i := 0; i < 12; i++ {
			f.readSome(t, workload.TermID(i), 100<<10)
			f.readSome(t, workload.TermID(40+12*round+i), 3<<10)
		}
	}
	s := f.m.Stats()
	if s.SSDWriteErrors == 0 || s.ListWritesToSSD == 0 {
		t.Fatalf("%d failed and %d successful list writes: the test needs both", s.SSDWriteErrors, s.ListWritesToSSD)
	}

	padded := 0
	f.m.icLRU.Ascend(func(e *cache.Entry[*ssdList]) bool {
		sl := e.Value
		extent := make([]byte, sl.blockBytes)
		if _, err := fd.Inner().ReadAt(extent, f.m.icBase()+sl.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(extent[:sl.validBytes], f.wantList(t, sl.term, 0, sl.validBytes)) {
			t.Errorf("term %d: SSD extent does not hold the list prefix", sl.term)
		}
		for i, b := range extent[sl.validBytes:] {
			if b != 0 {
				t.Errorf("term %d: pad byte %d of the extent is %#x: an earlier extent's bytes reached the SSD",
					sl.term, sl.validBytes+int64(i), b)
				break
			}
		}
		if sl.blockBytes-sl.validBytes > 64<<10 {
			padded++
		}
		return true
	})
	if padded == 0 {
		t.Fatal("no short prefix among the L2 entries: nothing exercised the pad")
	}
}
