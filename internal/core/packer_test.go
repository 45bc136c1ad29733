package core

// Tests for the list write buffer and packed extents: what reaches the
// device, what is served from memory, and what supersession, expiry, device
// errors and replacement do to lists that share a block.

import (
	"bytes"
	"testing"
	"time"

	"hybridstore/internal/flashsim"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// packerConfig is a block log of 16 KiB blocks over a list region of four,
// so the fixture's short lists fill and wrap it: one result block, a 16 KiB
// list write buffer out of 64 KiB of list memory, exact prefixes.
func packerConfig(policy Policy) Config {
	return Config{
		Policy:           policy,
		MemResultBytes:   16 << 10,
		MemListBytes:     64 << 10,
		SSDResultBytes:   16 << 10,
		SSDListBytes:     64 << 10,
		BlockBytes:       16 << 10,
		ResultEntryBytes: 4 << 10,
		PrefetchQuantum:  -1,
	}
}

// newPackerFixture runs cfg over a page-mapped flashsim drive of cfg's block
// size, behind a flakyDevice that counts and can fail its operations.
func newPackerFixture(t *testing.T, cfg Config) (*fixture, *flakyDevice) {
	t.Helper()
	var dev *flakyDevice
	f := newFaultFixture(t, cfg, func(mem storage.Device) storage.Device {
		p := flashsim.DefaultParams(mem.Size())
		p.PagesPerBlock = int(cfg.BlockBytes) / p.PageSize
		p.ExportedBlocks = int(mem.Size() / cfg.BlockBytes)
		dev = &flakyDevice{inner: flashsim.New("ssd", simclock.New(), p)}
		return dev
	})
	return f, dev
}

// evict hands the first n bytes of term's list to the L2 tier as an L1
// eviction would.
func (f *fixture) evict(t *testing.T, term workload.TermID, n int64) {
	t.Helper()
	f.m.termFreq[term] = 5
	f.m.flushListToSSD(memList{term: term, prefix: f.wantList(t, term, 0, n), loadedAt: f.clock.Now()})
}

// readBack reads the first n bytes of term's list through the manager and
// requires index-equal bytes.
func (f *fixture) readBack(t *testing.T, term workload.TermID, n int64) {
	t.Helper()
	got := make([]byte, n)
	if err := f.m.ReadListRange(term, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.wantList(t, term, 0, n)) {
		t.Fatalf("term %d: read returned bytes that are not the list's", term)
	}
}

func (f *fixture) checkInvariants(t *testing.T) {
	t.Helper()
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPackerWritesWholeAlignedBlocks: N sub-block evictions cause ⌈Σ/SB⌉
// device writes, each exactly one aligned block holding the prefixes end to
// end and then zeros, and the drive sees a pure log: after the region has
// wrapped twice, write amplification is still 1 with no GC copy.
func TestPackerWritesWholeAlignedBlocks(t *testing.T) {
	cfg := packerConfig(PolicyCBLRU)
	f, dev := newPackerFixture(t, cfg)
	f.m.SetEventSink(func(e Event) {
		if e.Kind == EvListFlush {
			checkExtentOnDevice(t, f, dev, f.m.lists.dyn[uint64(e.Term)].ext)
		}
	})
	const lists, each = 90, 2 << 10
	for term := workload.TermID(0); term < lists; term++ {
		f.evict(t, term, each)
		f.checkInvariants(t)
	}
	f.m.flush(&f.m.lists, nil)
	f.checkInvariants(t)

	want := (lists*each + cfg.BlockBytes - 1) / cfg.BlockBytes
	if int64(len(dev.writes)) != want {
		t.Fatalf("%d device writes for %d prefixes of %d bytes, want %d", len(dev.writes), lists, each, want)
	}
	for _, w := range dev.writes {
		if w[1] != cfg.BlockBytes || (w[0]-f.m.lists.base)%cfg.BlockBytes != 0 {
			t.Errorf("write [%d,+%d) is not one aligned block of the list region", w[0], w[1])
		}
	}
	if laps := want * cfg.BlockBytes / cfg.SSDListBytes; laps < 2 {
		t.Fatalf("region wrapped %d times: the test needs two", laps)
	}
	if w := dev.inner.(*flashsim.SSD).Wear(); w.WriteAmplification != 1 || w.GCPageCopies != 0 {
		t.Errorf("write amplification %v with %d GC copies, want 1 and 0", w.WriteAmplification, w.GCPageCopies)
	}
	s := f.m.Stats()
	if s.ListWritesToSSD != want || s.ListBytesToSSD != want*cfg.BlockBytes ||
		s.ListsWrittenToSSD != lists || s.ListPayloadBytesToSSD != lists*each || s.ListsDiscarded != 0 {
		t.Errorf("accounting: %d writes, %d bytes, %d lists, %d payload bytes, %d discarded",
			s.ListWritesToSSD, s.ListBytesToSSD, s.ListsWrittenToSSD, s.ListPayloadBytesToSSD, s.ListsDiscarded)
	}
	if got := s.ListsPerSSDWrite(); got != lists/float64(want) {
		t.Errorf("ListsPerSSDWrite = %v, want %v", got, lists/float64(want))
	}
	if got, wantPad := s.ListPaddingShare(), 1-float64(lists*each)/float64(want*cfg.BlockBytes); got != wantPad {
		t.Errorf("ListPaddingShare = %v, want %v", got, wantPad)
	}
}

// TestBufferedListServedFromMemory: a term in the list write buffer is read
// with no device call and counted as memory bytes, and re-evicting a prefix
// no longer than the buffered one is elided.
func TestBufferedListServedFromMemory(t *testing.T) {
	f, dev := newPackerFixture(t, packerConfig(PolicyCBLRU))
	f.evict(t, 7, 2<<10)
	if len(dev.writes) != 0 || f.m.lists.bufBytes != 2<<10 {
		t.Fatalf("%d device writes, %d bytes buffered: want the prefix waiting in memory", len(dev.writes), f.m.lists.bufBytes)
	}
	f.readBack(t, 7, 2<<10)
	s := f.m.Stats()
	if dev.reads != 0 || s.ListBytesFromMem != 2<<10 || s.ListBytesFromSSD+s.ListBytesFromHDD != 0 {
		t.Fatalf("%d device reads; %d memory, %d SSD, %d HDD bytes: want the buffer to serve all of it",
			dev.reads, s.ListBytesFromMem, s.ListBytesFromSSD, s.ListBytesFromHDD)
	}
	if f.m.lists.dyn[7].state != stateReplaceable {
		t.Error("buffered copy not replaceable after it was copied up")
	}
	f.evict(t, 7, 1<<10)
	if s := f.m.Stats(); s.ListWritesElided != 1 || f.m.lists.dyn[7].state != stateNormal || len(f.m.lists.buf) != 1 {
		t.Errorf("%d writes elided, %d prefixes buffered: want the shorter re-eviction elided and the copy revalidated",
			s.ListWritesElided, len(f.m.lists.buf))
	}
	f.checkInvariants(t)
}

// TestLongerPrefixSupersedes: a longer prefix replaces the buffered or packed
// copy (one mapping per term, dead bytes behind it), and the extent is freed
// and trimmed when its last live list goes.
func TestLongerPrefixSupersedes(t *testing.T) {
	cfg := packerConfig(PolicyCBLRU)
	f, dev := newPackerFixture(t, cfg)
	f.evict(t, 7, 1<<10)
	f.evict(t, 7, 2<<10) // supersedes inside the buffer
	if len(f.m.lists.buf) != 1 || f.m.lists.bufBytes != 2<<10 {
		t.Fatalf("buffer holds %d prefixes, %d bytes: want the longer one alone", len(f.m.lists.buf), f.m.lists.bufBytes)
	}
	f.evict(t, 8, 2<<10)
	f.m.flush(&f.m.lists, nil)
	x := f.m.lists.dyn[7].ext
	if x == nil || x != f.m.lists.dyn[8].ext || len(x.entries) != 2 {
		t.Fatal("terms 7 and 8 not packed into one extent")
	}

	f.evict(t, 7, 3<<10)
	if sl := f.m.lists.dyn[7]; sl.ext != nil || sl.bytes != 3<<10 || len(x.entries) != 1 {
		t.Fatalf("longer prefix did not supersede the packed copy: %+v, extent holds %d", sl, len(x.entries))
	}
	if dev.trims != 0 || f.m.lists.alloc.FreeBytes() != cfg.SSDListBytes-cfg.BlockBytes {
		t.Fatal("a superseded list must leave dead bytes, not a hole")
	}
	f.checkInvariants(t)

	f.evict(t, 8, 3<<10)
	if dev.trims != 1 || f.m.lists.alloc.FreeBytes() != cfg.SSDListBytes || f.m.lists.lru.Len() != 0 {
		t.Fatalf("%d trims, %d bytes free, %d extents: want the emptied extent freed and trimmed at once",
			dev.trims, f.m.lists.alloc.FreeBytes(), f.m.lists.lru.Len())
	}
	if got := f.m.Stats().L2ListEvictions; got != 3 {
		t.Fatalf("%d L2 list evictions, want one per superseded copy: 3", got)
	}
	f.checkInvariants(t)
}

// TestPackedReadErrorQuarantinesExtent: one packed list's read error retires
// the whole extent, and its neighbours come back index-equal from the HDD
// without another device call.
func TestPackedReadErrorQuarantinesExtent(t *testing.T) {
	cfg := packerConfig(PolicyCBLRU)
	f, dev := newPackerFixture(t, cfg)
	for term := workload.TermID(7); term <= 9; term++ {
		f.evict(t, term, 2<<10)
	}
	f.m.flush(&f.m.lists, nil)
	dev.failReads = true
	for term := workload.TermID(7); term <= 9; term++ {
		f.readBack(t, term, 2<<10)
	}
	s := f.m.Stats()
	if s.SSDReadErrors != 1 || dev.reads != 1 {
		t.Fatalf("%d read errors over %d device reads, want 1 and 1: neighbours must not touch the failed extent", s.SSDReadErrors, dev.reads)
	}
	if s.ExtentsQuarantined != 1 || s.QuarantinedBytes != cfg.BlockBytes || s.L2ListEvictions != 3 {
		t.Fatalf("%d extents / %d bytes quarantined, %d lists evicted, want 1 / %d / 3",
			s.ExtentsQuarantined, s.QuarantinedBytes, s.L2ListEvictions, cfg.BlockBytes)
	}
	if s.ListBytesFromHDD != 3*(2<<10) || len(f.m.lists.dyn) != 0 {
		t.Fatalf("%d HDD bytes, %d lists still mapped", s.ListBytesFromHDD, len(f.m.lists.dyn))
	}
	f.checkInvariants(t)
}

// TestFailedBlockWriteDiscardsBatchOnce: a failed block write quarantines the
// extent and discards every list of the batch, each counted once.
func TestFailedBlockWriteDiscardsBatchOnce(t *testing.T) {
	f, dev := newPackerFixture(t, packerConfig(PolicyCBLRU))
	for term := workload.TermID(7); term <= 9; term++ {
		f.evict(t, term, 2<<10)
	}
	dev.failWrites = true
	f.m.flush(&f.m.lists, nil)
	s := f.m.Stats()
	if s.SSDWriteErrors != 1 || s.ListsDiscarded != 3 || s.L2ListEvictions != 3 || s.ExtentsQuarantined != 1 {
		t.Fatalf("%d write errors, %d discarded, %d evicted, %d quarantined, want 1/3/3/1",
			s.SSDWriteErrors, s.ListsDiscarded, s.L2ListEvictions, s.ExtentsQuarantined)
	}
	if s.ListWritesToSSD+s.ListsWrittenToSSD != 0 || len(f.m.lists.dyn)+len(f.m.lists.buf) != 0 {
		t.Fatal("a failed block write left lists written, mapped or buffered")
	}
	f.checkInvariants(t)
}

// TestPackedListExpiresAlone: TTL expiry unmaps one list of an extent; the
// others stay readable from the SSD.
func TestPackedListExpiresAlone(t *testing.T) {
	cfg := packerConfig(PolicyCBLRU)
	cfg.ListTTL = time.Second
	f, _ := newPackerFixture(t, cfg)
	f.evict(t, 7, 2<<10)
	f.clock.AdvanceAttr(600*time.Millisecond, simclock.CompOther)
	f.evict(t, 8, 2<<10)
	f.m.flush(&f.m.lists, nil)
	f.clock.AdvanceAttr(600*time.Millisecond, simclock.CompOther)
	if f.m.ssdListFor(7) != nil || f.m.Stats().ListsExpired != 1 {
		t.Fatal("term 7 did not expire")
	}
	f.readBack(t, 8, 2<<10)
	if s := f.m.Stats(); s.ListBytesFromSSD != 2<<10 || f.m.lists.lru.Len() != 1 {
		t.Fatalf("%d SSD bytes, %d extents: want the neighbour still served from its extent", s.ListBytesFromSSD, f.m.lists.lru.Len())
	}
	f.checkInvariants(t)
}

// TestPlacementSweepsPastTheWindow: when evicting the replace-first window
// frees no aligned room, placement evicts on through the whole LRU list — the
// paper's rare worst case, counted.
func TestPlacementSweepsPastTheWindow(t *testing.T) {
	cfg := packerConfig(PolicyCBLRU)
	cfg.WindowW = 1
	f, _ := newPackerFixture(t, cfg)
	for term := workload.TermID(11); term <= 14; term++ { // one extent a block
		f.evict(t, term, 2<<10)
		f.m.flush(&f.m.lists, nil)
	}
	f.evict(t, 1, 2*cfg.BlockBytes) // term 11's block alone is no room for two
	if s := f.m.Stats(); s.ListPlacementWorstCase != 1 || s.L2ListEvictions != 2 || f.m.lists.dyn[1] == nil {
		t.Fatalf("%d worst-case placements, %d evictions: want term 1 placed after evicting terms 11 and 12",
			s.ListPlacementWorstCase, s.L2ListEvictions)
	}
	f.checkInvariants(t)
}

// TestLadderOverSingleListExtents: with one list per extent the merged
// overwrite step picks what Fig 13's steps 2–3 pick — a replaceable entry
// first, then the least recent.
func TestLadderOverSingleListExtents(t *testing.T) {
	f, _ := newPackerFixture(t, packerConfig(PolicyCBLRU))
	place := func(term workload.TermID) {
		f.evict(t, term, 2<<10)
		f.m.flush(&f.m.lists, nil)
	}
	for term := workload.TermID(1); term <= 4; term++ { // fills the region, 1 least recent
		place(term)
	}
	f.m.lists.dyn[3].state = stateReplaceable
	place(5)
	if f.m.lists.dyn[3] != nil || len(f.m.lists.dyn) != 4 {
		t.Fatalf("replaceable term 3 not the first victim: %d lists mapped", len(f.m.lists.dyn))
	}
	place(6)
	if f.m.lists.dyn[1] != nil || len(f.m.lists.dyn) != 4 {
		t.Fatal("least recent term 1 not the second victim")
	}
	if s := f.m.Stats(); s.ListOverwritesInPlace != 2 || s.L2ListEvictions != 2 {
		t.Fatalf("%d in-place overwrites, %d evictions, want 2 and 2", s.ListOverwritesInPlace, s.L2ListEvictions)
	}
	f.checkInvariants(t)
}
