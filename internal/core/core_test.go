package core

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"hybridstore/internal/cache"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// fixture bundles a small end-to-end hierarchy for unit tests.
type fixture struct {
	clock *simclock.Clock
	ix    *index.Index
	ssd   storage.Device
	m     *Manager
	spec  workload.CollectionSpec
}

func testConfig(policy Policy) Config {
	return Config{
		Policy:           policy,
		MemResultBytes:   100 << 10, // 5 result entries
		MemListBytes:     256 << 10,
		SSDResultBytes:   1 << 20,
		SSDListBytes:     4 << 20,
		BlockBytes:       128 << 10,
		ResultEntryBytes: 20 << 10,
		WindowW:          5,
		TEV:              0, // selection disabled unless a test opts in
	}
}

// stampIndex stamps spec's raw image onto the device dev makes of the
// image's size.
func stampIndex(tb testing.TB, spec workload.CollectionSpec, dev func(size int64) storage.Device) *index.Index {
	tb.Helper()
	img, err := index.BuildImage(spec, index.CodecRaw)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := img.Stamp(dev(img.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	clock := simclock.New()
	spec := workload.DefaultCollection(200000)
	spec.VocabSize = 200
	ix := stampIndex(t, spec, func(size int64) storage.Device {
		return storage.NewMemDevice("hdd", size, clock, storage.DefaultMemParams())
	})
	var ssd storage.Device
	if cfg.SSDResultBytes+cfg.SSDListBytes > 0 {
		// The SSD cache device runs on its own clock; the manager charges
		// foreground read time onto the shared clock itself.
		ssd = storage.NewMemDevice("ssd", cfg.SSDResultBytes+cfg.SSDListBytes+(1<<20),
			simclock.New(), storage.DefaultMemParams())
	}
	m, err := New(clock, ix, ssd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{clock: clock, ix: ix, ssd: ssd, m: m, spec: spec}
}

func (f *fixture) wantList(t testing.TB, term workload.TermID, off, n int64) []byte {
	t.Helper()
	want := make([]byte, n)
	if err := f.ix.ReadListRange(term, off, want); err != nil {
		t.Fatal(err)
	}
	return want
}

// readSome reads up to n bytes of term's list through the manager, clamped
// to the list length, failing the test on error. It returns the bytes read.
func (f *fixture) readSome(t testing.TB, term workload.TermID, n int64) int64 {
	t.Helper()
	if total := f.ix.ListBytes(term); n > total {
		n = total
	}
	buf := make([]byte, n)
	if err := f.m.ReadListRange(term, 0, buf); err != nil {
		t.Fatalf("readSome(term %d, %d): %v", term, n, err)
	}
	return n
}

func entryOf(qid uint64, fill byte, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = fill
	}
	b[0] = byte(qid)
	return b
}

func TestNewValidation(t *testing.T) {
	clock := simclock.New()
	spec := workload.DefaultCollection(1000)
	spec.VocabSize = 10
	ix := stampIndex(t, spec, func(size int64) storage.Device {
		return storage.NewMemDevice("hdd", size, clock, storage.DefaultMemParams())
	})
	// SSD regions configured without a device.
	cfg := testConfig(PolicyCBLRU)
	if _, err := New(clock, ix, nil, cfg); err == nil {
		t.Fatal("accepted SSD regions with nil device")
	}
	// Regions exceeding device size.
	tiny := storage.NewMemDevice("ssd", 1<<20, clock, storage.DefaultMemParams())
	if _, err := New(clock, ix, tiny, cfg); err == nil {
		t.Fatal("accepted oversized regions")
	}
	// One-level config is fine without a device.
	cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0
	if _, err := New(clock, ix, nil, cfg); err != nil {
		t.Fatalf("one-level config rejected: %v", err)
	}
	// Zero memory is rejected.
	bad := testConfig(PolicyCBLRU)
	bad.MemResultBytes = 0
	if _, err := New(clock, ix, nil, bad); err == nil {
		t.Fatal("accepted zero MemResultBytes")
	}
}

func TestReadListRangeCorrectAllPolicies(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			f := newFixture(t, testConfig(policy))
			for _, term := range []workload.TermID{0, 3, 50, 199} {
				n := f.ix.ListBytes(term)
				if n > 32<<10 {
					n = 32 << 10
				}
				got := make([]byte, n)
				if err := f.m.ReadListRange(term, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, f.wantList(t, term, 0, n)) {
					t.Fatalf("policy %v term %d: wrong bytes", policy, term)
				}
				// Read again (should come from cache) and re-verify.
				got2 := make([]byte, n)
				if err := f.m.ReadListRange(term, 0, got2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got2, got) {
					t.Fatalf("policy %v term %d: cached bytes differ", policy, term)
				}
			}
		})
	}
}

func TestReadListRangeBounds(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	buf := make([]byte, 8)
	if err := f.m.ReadListRange(5, f.ix.ListBytes(5), buf); err == nil {
		t.Fatal("read past list end accepted")
	}
	if err := f.m.ReadListRange(5, -1, buf); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestL1ListCachingServesFromMemory(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	term := workload.TermID(10)
	f.readSome(t, term, 8<<10)
	hddBefore := f.m.Stats().ListBytesFromHDD
	f.readSome(t, term, 8<<10)
	s := f.m.Stats()
	if s.ListBytesFromHDD != hddBefore {
		t.Fatal("repeat read went to HDD")
	}
	if s.ListBytesFromMem == 0 {
		t.Fatal("repeat read not counted as memory")
	}
}

func TestL1PrefixExtension(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	term := workload.TermID(0)
	chunk := make([]byte, 8<<10)
	f.m.ReadListRange(term, 0, chunk)
	f.m.ReadListRange(term, 8<<10, chunk) // contiguous extension
	memBefore := f.m.Stats().ListBytesFromMem
	both := make([]byte, 16<<10)
	if err := f.m.ReadListRange(term, 0, both); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(both, f.wantList(t, term, 0, 16<<10)) {
		t.Fatal("extended prefix corrupt")
	}
	if f.m.Stats().ListBytesFromMem-memBefore < 16<<10 {
		t.Fatal("extended range not fully served from memory")
	}
}

func TestEvictionFlowsToSSDAndBack(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10 // tiny L1: force eviction
	f := newFixture(t, cfg)
	termA, termB := workload.TermID(20), workload.TermID(21)
	nA := f.readSome(t, termA, 12<<10)
	// Fill L1 with other lists until termA is evicted (flushed to SSD).
	for i := 0; i < 20; i++ {
		f.readSome(t, workload.TermID(30+i), 12<<10)
	}
	f.readSome(t, termB, 12<<10)
	f.m.flush(&f.m.lists, nil)
	if f.m.Stats().ListWritesToSSD == 0 {
		t.Fatal("no list flushed to SSD under L1 pressure")
	}
	// termA should now hit SSD, not HDD.
	hddBefore := f.m.Stats().ListBytesFromHDD
	got := make([]byte, nA)
	if err := f.m.ReadListRange(termA, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.wantList(t, termA, 0, nA)) {
		t.Fatal("SSD round-trip corrupted list bytes")
	}
	s := f.m.Stats()
	if s.ListBytesFromSSD == 0 {
		t.Fatal("re-read not served from SSD")
	}
	if s.ListBytesFromHDD != hddBefore {
		t.Fatalf("re-read touched HDD (%d extra bytes)", s.ListBytesFromHDD-hddBefore)
	}
}

func TestTEVDiscardsColdLargeLists(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	cfg.TEV = 10 // everything with freq < 10×SC blocks is discarded
	f := newFixture(t, cfg)
	for i := 0; i < 20; i++ {
		f.readSome(t, workload.TermID(30+i), 12<<10)
	}
	s := f.m.Stats()
	if s.ListWritesToSSD != 0 {
		t.Fatalf("cold lists flushed despite TEV: %d writes", s.ListWritesToSSD)
	}
	if s.ListsDiscarded == 0 {
		t.Fatal("nothing discarded")
	}
}

func TestWriteElisionOnReplaceableCopy(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	f := newFixture(t, cfg)
	term := workload.TermID(20)
	f.readSome(t, term, 12<<10)
	// Evict term to SSD.
	for i := 0; i < 20; i++ {
		f.readSome(t, workload.TermID(40+i), 12<<10)
	}
	writes := f.m.Stats().ListWritesToSSD
	if writes == 0 {
		t.Skip("term never reached SSD; adjust fixture")
	}
	// Read back: the SSD copy flips to replaceable and the list re-enters
	// L1.
	f.readSome(t, term, 12<<10)
	sl := f.m.ssdListFor(term)
	if sl == nil || sl.state != stateReplaceable {
		t.Fatalf("SSD copy not replaceable after read-back: %+v", sl)
	}
	// Evict it again (directly, to keep the scenario deterministic): the
	// SSD already holds the bytes, so the write must be elided and the
	// copy revalidated.
	e, ok := f.m.ic.Peek(uint64(term))
	if !ok {
		t.Fatal("term not back in L1 after read-back")
	}
	ml := e.Value
	f.m.ic.RemoveEntry(e)
	f.m.flushListToSSD(ml)
	if f.m.Stats().ListWritesElided == 0 {
		t.Fatal("re-eviction rewrote data the SSD already held")
	}
	if got := f.m.ssdListFor(term); got == nil || got.state != stateNormal {
		t.Fatal("elided entry not revalidated to normal state")
	}
}

func TestResultCacheMemoryHit(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	entry := entryOf(1, 0xAA, f.m.Config().ResultEntryBytes)
	if err := f.m.PutResult(1, entry); err != nil {
		t.Fatal(err)
	}
	got, src := f.m.GetResult(1)
	if src != ResultFromMemory || !bytes.Equal(got, entry) {
		t.Fatalf("src=%v", src)
	}
	if _, src := f.m.GetResult(999); src != ResultMiss {
		t.Fatal("phantom hit")
	}
	s := f.m.Stats()
	if s.ResultHitsMem != 1 || s.ResultMisses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPutResultWrongSizeRejected(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	if err := f.m.PutResult(1, make([]byte, 100)); err == nil {
		t.Fatal("accepted short entry")
	}
}

func TestPadResult(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	out := f.m.PadResult([]byte{1, 2, 3})
	if int64(len(out)) != f.m.Config().ResultEntryBytes || out[0] != 1 || out[3] != 0 {
		t.Fatalf("pad wrong: len=%d", len(out))
	}
	// An entry that cannot fit is not cut into one that no longer decodes:
	// it comes back whole, and both ways into the cache refuse it.
	long := make([]byte, f.m.Config().ResultEntryBytes+1)
	if out := f.m.PadResult(long); len(out) != len(long) {
		t.Fatalf("over-long entry cut to %d bytes", len(out))
	}
	if err := f.m.PutResult(1, f.m.PadResult(long)); err == nil {
		t.Fatal("PutResult accepted an over-long entry")
	}
	static := newFixture(t, testConfig(PolicyCBSLRU))
	if static.m.PinResult(1, long) {
		t.Fatal("PinResult accepted an over-long entry")
	}
}

func TestResultEvictionAssemblesRBsAndReadsBack(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	// L1 holds 5 entries; entriesPerRB = 6. Insert enough to evict >6.
	const total = 20
	for q := uint64(1); q <= total; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	s := f.m.Stats()
	if s.L1ResultEvictions == 0 {
		t.Fatal("no L1 evictions")
	}
	if s.RBFlushes == 0 {
		t.Fatalf("no RB assembled (buffer=%d)", len(f.m.results.buf))
	}
	// Early queries should now be on SSD.
	var ssdHit bool
	for q := uint64(1); q <= 6; q++ {
		got, src := f.m.GetResult(q)
		if src == ResultFromSSD {
			ssdHit = true
			if got[0] != byte(q) {
				t.Fatalf("query %d: wrong entry content", q)
			}
		}
	}
	if !ssdHit {
		t.Fatal("no result served from SSD")
	}
}

func TestResultSSDHitPromotesToL1(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 20; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	var promoted uint64
	for q := uint64(1); q <= 6; q++ {
		if _, src := f.m.GetResult(q); src == ResultFromSSD {
			promoted = q
			break
		}
	}
	if promoted == 0 {
		t.Skip("no SSD hit in fixture")
	}
	if _, src := f.m.GetResult(promoted); src != ResultFromMemory {
		t.Fatalf("second lookup src=%v, want memory", src)
	}
	// Evicted again, it finds its SSD copy still there: the write is
	// elided and the copy revalidated.
	for q := uint64(100); q < 105; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	if s := f.m.Stats(); s.ResultWritesElided != 1 || f.m.results.dyn[promoted].state != stateNormal {
		t.Fatalf("%d result writes elided: want the re-evicted entry's SSD copy revalidated", s.ResultWritesElided)
	}
}

func TestLRUBaselineWritesResultsImmediately(t *testing.T) {
	f := newFixture(t, testConfig(PolicyLRU))
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 8; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	s := f.m.Stats()
	if s.ResultBytesToSSD == 0 {
		t.Fatal("baseline did not write evicted results to SSD")
	}
	if s.RBFlushes != 0 {
		t.Fatal("baseline should not assemble RBs")
	}
	if len(f.m.results.buf) != 0 {
		t.Fatal("baseline buffered results")
	}
	// Evicted entries are readable from SSD.
	got, src := f.m.GetResult(1)
	if src != ResultFromSSD || got[0] != 1 {
		t.Fatalf("src=%v", src)
	}
	// Past the 52 entries the region holds, each write frees the least
	// recent entry.
	for q := uint64(9); q <= 70; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	if s := f.m.Stats(); s.L2ResultEvictions == 0 {
		t.Fatal("baseline never freed an SSD entry for a new one")
	}
}

// flushResults writes whole RBs from the result write buffer until less than
// one block's worth waits or a write fails (the failed batch is re-queued,
// so the buffer does not shrink and retrying at once would spin), and
// returns how many entries wait.
func flushResults(m *Manager) int {
	for len(m.results.buf) >= m.entriesPerRB {
		before := len(m.results.buf)
		m.flush(&m.results, nil)
		if len(m.results.buf) >= before {
			break
		}
	}
	return len(m.results.buf)
}

func TestFlushWriteBuffer(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 9; q++ { // 5 stay in L1, 4 buffered
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	if left := flushResults(f.m); left >= f.m.entriesPerRB {
		t.Fatalf("%d entries still buffered after flush", left)
	}
}

func TestWriteBufferServesLookups(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 7; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	if len(f.m.results.buf) == 0 {
		t.Skip("nothing buffered")
	}
	// Query 1 or 2 should be in the buffer; find one and look it up.
	for q := uint64(1); q <= 2; q++ {
		if got, src := f.m.GetResult(q); src == ResultFromMemory && got[0] == byte(q) {
			return
		}
	}
	t.Fatal("buffered entries not served as memory hits")
}

// TestRePutBufferedResultWrittenOnce: an entry put again while its copy
// waits in the write buffer, and evicted again before the buffer is flushed,
// takes that copy's place instead of joining it.
func TestRePutBufferedResultWrittenOnce(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	putEntries(t, f, 1, 6) // query 1 waits in the write buffer
	putEntries(t, f, 1, 1) // put again without a lookup
	for q := uint64(3); q <= 6; q++ {
		f.m.GetResult(q) // query 1 becomes L1's least recent entry
	}
	putEntries(t, f, 100, 104) // evicts it again and fills an RB
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := f.m.Stats(); copiesOf(f, 1) != 1 || s.RBFlushes != 1 || s.ResultWritesElided != 1 {
		t.Fatalf("%d copies of query 1 in the write buffer and on the SSD, %d RBs, %d writes elided: want 1, 1, 1",
			copiesOf(f, 1), s.RBFlushes, s.ResultWritesElided)
	}
}

// TestPinBufferedResultWrittenOnce: pinning a query whose copy waits in the
// write buffer takes that copy out, so the next RB flush does not write it
// again as a dynamic entry beside the static one, and counts the write as
// elided.
func TestPinBufferedResultWrittenOnce(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBSLRU))
	putEntries(t, f, 1, 6) // query 1 waits in the write buffer
	if !f.m.PinResult(1, entryOf(1, 0xAB, f.m.cfg.ResultEntryBytes)) {
		t.Fatal("pin failed")
	}
	putEntries(t, f, 100, 105) // evicts six entries: an RB flush
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := f.m.Stats(); copiesOf(f, 1) != 0 || f.m.results.static[1] == nil || s.RBFlushes != 1 || s.ResultWritesElided != 1 {
		t.Fatalf("%d copies of query 1 in the write buffer and dynamic RBs, static %v, %d RBs, %d writes elided: want 0, true, 1, 1",
			copiesOf(f, 1), f.m.results.static[1] != nil, s.RBFlushes, s.ResultWritesElided)
	}
	if _, src := f.m.GetResult(1); src != ResultFromSSD {
		t.Fatalf("pinned query 1 served from %v, want the SSD", src)
	}
}

// copiesOf counts the copies of query qid in the write buffer and in the
// dynamic result blocks.
func copiesOf(f *fixture, qid uint64) int {
	n := 0
	for _, e := range f.m.results.buf {
		if e.key == qid {
			n++
		}
	}
	f.m.results.lru.Ascend(func(e *cache.Entry[*extent]) bool {
		for _, s := range e.Value.entries {
			if s.key == qid {
				n++
			}
		}
		return true
	})
	return n
}

func TestStaticPinningCBSLRU(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBSLRU))
	size := f.m.Config().ResultEntryBytes
	if !f.m.PinResult(500, entryOf(500, 0x55, size)) {
		t.Fatal("PinResult failed with empty static region")
	}
	if _, src := f.m.GetResult(500); src != ResultFromSSD {
		t.Fatal("pinned result not served from SSD")
	}
	if !f.m.PinList(5) {
		t.Fatal("PinList failed")
	}
	got := make([]byte, 4<<10)
	hddBefore := f.m.Stats().ListBytesFromHDD
	if err := f.m.ReadListRange(5, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.wantList(t, 5, 0, 4<<10)) {
		t.Fatal("pinned list bytes wrong")
	}
	if f.m.Stats().ListBytesFromHDD != hddBefore {
		t.Fatal("pinned list read touched HDD")
	}
	if len(f.m.lists.static) != 1 {
		t.Fatal("pinned list not tracked")
	}
}

func TestStaticPinningRejectedOutsideCBSLRU(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	if f.m.PinResult(1, entryOf(1, 1, f.m.Config().ResultEntryBytes)) {
		t.Fatal("PinResult allowed under CBLRU")
	}
	if f.m.PinList(1) {
		t.Fatal("PinList allowed under CBLRU")
	}
	if f.m.staticBudget(&f.m.results) != 0 || f.m.staticBudget(&f.m.lists) != 0 {
		t.Fatal("non-CBSLRU policies report static budget")
	}
}

func TestStaticBudgetEnforced(t *testing.T) {
	cfg := testConfig(PolicyCBSLRU)
	cfg.StaticFraction = 0.25
	cfg.SSDListBytes = 2 << 20 // a budget of 4 blocks, less than the fixture's lists
	f := newFixture(t, cfg)
	size, bs := cfg.ResultEntryBytes, cfg.BlockBytes

	// Results: static RBs fill slot by slot, and exactly as many entries as
	// the budget's whole RBs hold are pinned.
	perRB := bs / size
	maxEntries := f.m.staticBudget(&f.m.results) / bs * perRB
	var pinned int64
	for q := uint64(1); q <= uint64(maxEntries)+10; q++ {
		if !f.m.PinResult(q, entryOf(q, 1, size)) {
			continue
		}
		e := f.m.results.static[q]
		if slot := pinned % perRB; e.off != e.ext.off+slot*size || (slot > 0 && e.ext != f.m.results.static[q-1].ext) {
			t.Fatalf("pin %d at offset %d of an RB at %d, want slot %d after the previous pin", pinned, e.off, e.ext.off, slot)
		}
		pinned++
	}
	if pinned != maxEntries || maxEntries == 0 {
		t.Fatalf("pinned %d entries, budget %d", pinned, maxEntries)
	}

	// Lists: sub-block pins pack end to end into one static block until the
	// next does not fit, and blocks are opened only while the budget allows.
	budget := f.m.staticBudget(&f.m.lists)
	var open *extent
	blocks, pins := int64(0), 0
	for term := workload.TermID(0); term < 200; term++ {
		if !f.m.PinList(term) {
			if taken := f.m.lists.staticTaken; taken+bs <= budget {
				t.Fatalf("pin of term %d refused with %d of %d static bytes taken", term, taken, budget)
			}
			break
		}
		e := f.m.lists.static[uint64(term)]
		if e.bytes >= bs {
			t.Fatalf("term %d pinned %d bytes: want sub-block pins", term, e.bytes)
		}
		if open != nil && e.ext == open {
			if want := open.entries[len(open.entries)-2]; e.off != want.off+want.bytes {
				t.Fatalf("term %d at %d, not right after the previous pin at [%d,+%d)", term, e.off, want.off, want.bytes)
			}
		} else {
			if open != nil && open.fill()+e.bytes <= bs {
				t.Fatalf("term %d opened a new block with %d bytes left in the open one", term, bs-open.fill())
			}
			if e.off != e.ext.off || e.ext.bytes != bs {
				t.Fatalf("term %d opened [%d,+%d) at %d", term, e.ext.off, e.ext.bytes, e.off)
			}
			open = e.ext
			blocks++
		}
		pins++
		if taken := f.m.lists.staticTaken; taken != blocks*bs || taken > budget {
			t.Fatalf("%d static bytes taken by %d blocks, budget %d", taken, blocks, budget)
		}
	}
	if blocks != budget/bs || int64(pins) <= blocks {
		t.Fatalf("%d list pins in %d blocks, budget %d blocks: want the budget full and pins packed", pins, blocks, budget/bs)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSituationClassification(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	buf := make([]byte, 8<<10)

	// Query 1: all lists from HDD → S9.
	f.m.BeginQuery(1)
	f.m.ReadListRange(10, 0, buf)
	f.m.EndQuery(time.Millisecond)

	// Query 2: same list now in memory → S3.
	f.m.BeginQuery(2)
	f.m.ReadListRange(10, 0, buf)
	f.m.EndQuery(time.Millisecond)

	// Query 3: result hit in memory → S1.
	f.m.PutResult(3, entryOf(3, 3, f.m.Config().ResultEntryBytes))
	f.m.BeginQuery(3)
	f.m.GetResult(3)
	f.m.EndQuery(time.Microsecond)

	tally := f.m.Stats().Situations
	if tally.Counts[S9ListsHDD] != 1 || tally.Counts[S3ListsMem] != 1 || tally.Counts[S1ResultMem] != 1 {
		t.Fatalf("tally = %+v", tally.Counts)
	}
	if tally.Total() != 3 {
		t.Fatalf("total = %d", tally.Total())
	}
	if tally.Probability(S9ListsHDD) < 0.3 || tally.MeanTime(S9ListsHDD) != time.Millisecond {
		t.Fatalf("P/T wrong: %v %v", tally.Probability(S9ListsHDD), tally.MeanTime(S9ListsHDD))
	}
}

func TestHitRatioAccounting(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	buf := make([]byte, 8<<10)
	f.m.BeginQuery(1)
	f.m.ReadListRange(10, 0, buf) // miss (HDD)
	f.m.EndQuery(time.Millisecond)
	f.m.BeginQuery(2)
	f.m.ReadListRange(10, 0, buf) // hit (mem)
	f.m.EndQuery(time.Millisecond)
	s := f.m.Stats()
	if s.ListRequests != 2 || s.ListHits != 1 {
		t.Fatalf("list accounting: %d/%d", s.ListHits, s.ListRequests)
	}
	if s.ListHitRatio() != 0.5 {
		t.Fatalf("ListHitRatio = %v", s.ListHitRatio())
	}
}

func TestStatsResetPreservesCache(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	buf := make([]byte, 8<<10)
	f.m.ReadListRange(10, 0, buf)
	f.m.ResetStats()
	if f.m.Stats().ListBytesFromHDD != 0 {
		t.Fatal("stats not reset")
	}
	f.m.ReadListRange(10, 0, buf)
	if f.m.Stats().ListBytesFromHDD != 0 {
		t.Fatal("cache contents lost on stats reset")
	}
}

func TestMeasuredPUFallback(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.PU = nil
	f := newFixture(t, cfg)
	if got := f.m.pu(5); got != 1 {
		t.Fatalf("unmeasured PU = %v, want 1", got)
	}
	f.m.RecordUtilization(5, 0.5)
	if got := f.m.pu(5); got != 0.5 {
		t.Fatalf("PU after sample = %v", got)
	}
	f.m.RecordUtilization(5, 1.0)
	got := f.m.pu(5)
	if got <= 0.5 || got >= 1.0 {
		t.Fatalf("EWMA PU = %v", got)
	}
	f.m.RecordUtilization(6, 5.0) // clamped
	if f.m.pu(6) != 1 {
		t.Fatalf("overlarge sample not clamped: %v", f.m.pu(6))
	}
	f.m.RecordUtilization(7, -1) // ignored
	if f.m.pu(7) != 1 {
		t.Fatal("negative sample recorded")
	}
}

func TestFormula1SCBlocks(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	// Paper's example: SI = 1000 KB, PU = 50% → SC = 4 blocks (512 KB).
	if got := f.m.scBlocks(1000<<10, 0.5); got != 4 {
		t.Fatalf("SC = %d, want 4", got)
	}
	if got := f.m.scBlocks(1, 0.01); got != 1 {
		t.Fatalf("tiny list SC = %d, want 1", got)
	}
	if got := f.m.scBlocks(0, 0.5); got != 0 {
		t.Fatalf("empty list SC = %d", got)
	}
}

func TestFormula2EV(t *testing.T) {
	if ev(100, 4) != 25 {
		t.Fatalf("EV = %v", ev(100, 4))
	}
	if ev(100, 0) != 0 {
		t.Fatal("EV with zero SC not 0")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyLRU.String() != "LRU" || PolicyCBLRU.String() != "CBLRU" || PolicyCBSLRU.String() != "CBSLRU" {
		t.Fatal("policy names wrong")
	}
	if Policy(42).String() == "" {
		t.Fatal("unknown policy empty string")
	}
}

func TestSituationString(t *testing.T) {
	for s := S1ResultMem; s < numSituations; s++ {
		if s.String() == "S?" {
			t.Fatalf("situation %d unnamed", s)
		}
	}
}

func TestListIntegrityProperty(t *testing.T) {
	// Property: whatever the policy and access history, ReadListRange
	// returns exactly the index's bytes.
	for _, policy := range allPolicies() {
		cfg := testConfig(policy)
		cfg.MemListBytes = 64 << 10 // heavy eviction churn
		f := newFixture(t, cfg)
		check := func(ops []uint16) bool {
			for _, raw := range ops {
				term := workload.TermID(raw % 200)
				total := f.ix.ListBytes(term)
				n := int64(raw%8+1) << 10
				if n > total {
					n = total
				}
				got := make([]byte, n)
				if err := f.m.ReadListRange(term, 0, got); err != nil {
					return false
				}
				want := make([]byte, n)
				f.ix.ReadListRange(term, 0, want)
				if !bytes.Equal(got, want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

func TestResultIntegrityProperty(t *testing.T) {
	// Property: a Get after Put returns the stored entry (from some level)
	// or a clean miss — never wrong bytes. Entries are immutable per query
	// ID (the paper's static scenario), so content derives from the ID.
	for _, policy := range []Policy{PolicyLRU, PolicyCBLRU} {
		f := newFixture(t, testConfig(policy))
		size := f.m.Config().ResultEntryBytes
		stored := make(map[uint64]bool)
		fillOf := func(qid uint64) byte { return byte(qid*7 + 13) }
		check := func(ops []uint16) bool {
			for i, raw := range ops {
				qid := uint64(raw%64 + 1)
				if i%2 == 0 {
					f.m.PutResult(qid, entryOf(qid, fillOf(qid), size))
					stored[qid] = true
				} else if stored[qid] {
					got, src := f.m.GetResult(qid)
					if src != ResultMiss {
						if got[0] != byte(qid) || got[1] != fillOf(qid) {
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

func TestOneLevelCacheWorks(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0
	clock := simclock.New()
	spec := workload.DefaultCollection(20000)
	spec.VocabSize = 200
	ix := stampIndex(t, spec, func(size int64) storage.Device {
		return storage.NewMemDevice("hdd", size, clock, storage.DefaultMemParams())
	})
	m, err := New(clock, ix, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := ix.ListBytes(3)
	if n > 8<<10 {
		n = 8 << 10
	}
	buf := make([]byte, n)
	if err := m.ReadListRange(3, 0, buf); err != nil {
		t.Fatal(err)
	}
	m.PutResult(1, entryOf(1, 9, cfg.ResultEntryBytes))
	if _, src := m.GetResult(1); src != ResultFromMemory {
		t.Fatal("one-level result miss")
	}
	// Evictions in a one-level cache drop data instead of flushing.
	for q := uint64(2); q <= 10; q++ {
		m.PutResult(q, entryOf(q, byte(q), cfg.ResultEntryBytes))
	}
	if m.Stats().ResultsDropped == 0 {
		t.Fatal("one-level evictions not dropped")
	}
}
