package core

// Tests for the cache core's device-error paths: scripted single-fault
// scenarios through a controllable flaky device, and an end-to-end
// divergence test under probabilistic injection (storage.FaultyDevice)
// asserting the stats≡trace contract survives faults.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

var errFlaky = errors.New("flaky: scripted device failure")

// flakyDevice wraps a Device with script-controlled per-op-kind failures,
// counting reads and trims and recording the range of every write it lets
// through. It always implements Trimmer (trims are forwarded to an inner
// Trimmer, no-ops otherwise) so trim error paths are reachable over a
// MemDevice inner. readsLeft, when set, counts down the reads that still
// succeed before failReads sets itself.
type flakyDevice struct {
	inner        storage.Device
	failReads    bool
	readsLeft    int
	failWrites   bool
	failTrims    bool
	reads, trims int
	writes       [][2]int64 // off, len
}

func (d *flakyDevice) Name() string { return d.inner.Name() }
func (d *flakyDevice) Size() int64  { return d.inner.Size() }

func (d *flakyDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.reads++
	if d.failReads {
		return 0, errFlaky
	}
	if d.readsLeft > 0 {
		d.readsLeft--
		d.failReads = d.readsLeft == 0
	}
	return d.inner.ReadAt(p, off)
}

func (d *flakyDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	if d.failWrites {
		return 0, errFlaky
	}
	d.writes = append(d.writes, [2]int64{off, int64(len(p))})
	return d.inner.WriteAt(p, off)
}

func (d *flakyDevice) Trim(off, n int64) (time.Duration, error) {
	d.trims++
	if d.failTrims {
		return 0, errFlaky
	}
	if t, ok := d.inner.(storage.Trimmer); ok {
		return t.Trim(off, n)
	}
	return 0, nil
}

// newFaultFixture mirrors newFixture but routes the manager's SSD traffic
// through the given wrapper (built from the raw mem device by wrap).
func newFaultFixture(t *testing.T, cfg Config, wrap func(storage.Device) storage.Device) *fixture {
	t.Helper()
	clock := simclock.New()
	spec := workload.DefaultCollection(200000)
	spec.VocabSize = 200
	ix := stampIndex(t, spec, func(size int64) storage.Device {
		return storage.NewMemDevice("hdd", size, clock, storage.DefaultMemParams())
	})
	mem := storage.NewMemDevice("ssd", cfg.SSDResultBytes+cfg.SSDListBytes+(1<<20),
		simclock.New(), storage.DefaultMemParams())
	ssd := wrap(mem)
	m, err := New(clock, ix, ssd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{clock: clock, ix: ix, ssd: ssd, m: m, spec: spec}
}

func newFlakyFixture(t *testing.T, cfg Config) (*fixture, *flakyDevice) {
	t.Helper()
	var fd *flakyDevice
	f := newFaultFixture(t, cfg, func(inner storage.Device) storage.Device {
		fd = &flakyDevice{inner: inner}
		return fd
	})
	return f, fd
}

// putEntries caches entries for qids [from,to] through the normal L1 path.
func putEntries(t *testing.T, f *fixture, from, to uint64) {
	t.Helper()
	for qid := from; qid <= to; qid++ {
		if err := f.m.PutResult(qid, entryOf(qid, 0xAB, f.m.cfg.ResultEntryBytes)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushWriteErrorRequeuesOnceThenDrops: a failed RB flush must not
// silently lose the batch (the bug this PR fixes) — entries are re-queued
// once with accounting, a second failure drops them, still accounted, and
// the failed extent is quarantined rather than recycled.
func TestFlushWriteErrorRequeuesOnceThenDrops(t *testing.T) {
	f, fd := newFlakyFixture(t, testConfig(PolicyCBLRU))
	fd.failWrites = true
	// 11 puts: L1 holds 5 entries, 6 evictions fill the write buffer and
	// trigger one RB flush, which fails.
	putEntries(t, f, 1, 11)
	s := f.m.Stats()
	if s.SSDWriteErrors != 1 {
		t.Fatalf("SSDWriteErrors = %d, want 1", s.SSDWriteErrors)
	}
	if s.ResultsRequeued != 6 || s.ResultsDropped != 0 {
		t.Fatalf("requeued %d dropped %d, want 6/0", s.ResultsRequeued, s.ResultsDropped)
	}
	if s.ExtentsQuarantined != 1 || s.QuarantinedBytes != f.m.cfg.BlockBytes {
		t.Fatalf("quarantine accounting: %d extents / %d bytes", s.ExtentsQuarantined, s.QuarantinedBytes)
	}
	if got := len(f.m.results.buf); got != 6 {
		t.Fatalf("write buffer %d entries after requeue, want 6", got)
	}
	for qid, e := range f.m.results.dyn {
		if e.ext != nil {
			t.Fatalf("failed flush left query %d mapped on the SSD", qid)
		}
	}

	// Second attempt: the re-queued batch is dropped, not re-queued again,
	// and the progress check stops the loop instead of spinning.
	if rem := flushResults(f.m); rem != 0 {
		t.Fatalf("flushResults left %d entries", rem)
	}
	s = f.m.Stats()
	if s.SSDWriteErrors != 2 || s.ResultsDropped != 6 || s.ResultsRequeued != 6 {
		t.Fatalf("after retry: errors %d dropped %d requeued %d, want 2/6/6",
			s.SSDWriteErrors, s.ResultsDropped, s.ResultsRequeued)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetResultReadErrorQuarantinesRB: a dynamic RB whose read fails is
// retired whole — mappings dropped, extent quarantined, no repeat device
// faults from later probes of its entries.
func TestGetResultReadErrorQuarantinesRB(t *testing.T) {
	f, fd := newFlakyFixture(t, testConfig(PolicyCBLRU))
	putEntries(t, f, 1, 11) // RB with qids 1..6 lands on SSD
	if len(f.m.results.dyn) != 6 {
		t.Fatalf("setup: %d SSD mappings, want 6", len(f.m.results.dyn))
	}
	fd.failReads = true
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatalf("read-error probe returned %v, want miss", src)
	}
	s := f.m.Stats()
	if s.SSDReadErrors != 1 || s.RBRetired != 1 {
		t.Fatalf("SSDReadErrors %d RBRetired %d, want 1/1", s.SSDReadErrors, s.RBRetired)
	}
	if s.ExtentsQuarantined != 1 || s.QuarantinedBytes != f.m.cfg.BlockBytes {
		t.Fatalf("quarantine accounting: %d extents / %d bytes", s.ExtentsQuarantined, s.QuarantinedBytes)
	}
	if len(f.m.results.dyn) != 0 {
		t.Fatalf("quarantined RB left %d mappings", len(f.m.results.dyn))
	}
	// Sibling entries now miss without touching the device again.
	if _, src := f.m.GetResult(2); src != ResultMiss {
		t.Fatal("sibling probe not a miss")
	}
	if got := f.m.Stats().SSDReadErrors; got != 1 {
		t.Fatalf("sibling probe touched the failing device (%d errors)", got)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetResultReadErrorLRUQuarantinesEntry: same contract under the LRU
// baseline, at single-entry granularity.
func TestGetResultReadErrorLRUQuarantinesEntry(t *testing.T) {
	f, fd := newFlakyFixture(t, testConfig(PolicyLRU))
	putEntries(t, f, 1, 8) // 3 entries written individually to SSD
	if len(f.m.results.dyn) != 3 {
		t.Fatalf("setup: %d SSD mappings, want 3", len(f.m.results.dyn))
	}
	fd.failReads = true
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatal("read-error probe not a miss")
	}
	s := f.m.Stats()
	if s.SSDReadErrors != 1 || s.ExtentsQuarantined != 1 || s.L2ResultEvictions != 1 {
		t.Fatalf("errors %d quarantined %d L2 evictions %d, want 1/1/1", s.SSDReadErrors, s.ExtentsQuarantined, s.L2ResultEvictions)
	}
	if s.QuarantinedBytes != f.m.cfg.ResultEntryBytes {
		t.Fatalf("quarantined %d bytes, want one entry (%d)", s.QuarantinedBytes, f.m.cfg.ResultEntryBytes)
	}
	if _, ok := f.m.results.dyn[1]; ok {
		t.Fatal("failed entry still mapped")
	}
	if len(f.m.results.dyn) != 2 {
		t.Fatalf("siblings lost: %d mappings, want 2", len(f.m.results.dyn))
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerOpensRoutesAroundAndCools: consecutive failures open the
// breaker; while open, SSD-resident entries are served as degraded misses
// with their mappings retained; after the cooldown the tier recovers.
func TestBreakerOpensRoutesAroundAndCools(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.BreakerThreshold = 3
	f, fd := newFlakyFixture(t, cfg)
	putEntries(t, f, 1, 11) // healthy warmup: RB with qids 1..6 on SSD
	f.m.flushListToSSD(memList{term: 7, prefix: f.wantList(t, 7, 0, 2<<10)})
	f.m.flush(&f.m.lists, nil) // and term 7's list

	fd.failWrites = true
	putEntries(t, f, 12, 23) // three failed flushes → streak hits 3
	s := f.m.Stats()
	if s.SSDWriteErrors != 3 || s.BreakerTrips != 1 {
		t.Fatalf("write errors %d trips %d, want 3/1", s.SSDWriteErrors, s.BreakerTrips)
	}
	if !f.m.DegradedMode() {
		t.Fatal("breaker did not open")
	}

	// Open breaker: SSD-resident entry degrades to a miss, mapping kept.
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatal("degraded probe not a miss")
	}
	if got := f.m.Stats().DegradedServes; got != 1 {
		t.Fatalf("DegradedServes = %d, want 1", got)
	}
	if _, ok := f.m.results.dyn[1]; !ok {
		t.Fatal("degraded probe dropped the mapping")
	}
	// So does the SSD-resident list, read from the HDD instead.
	f.readSome(t, 7, 2<<10)
	if s := f.m.Stats(); s.DegradedServes != 2 || s.ListReqBytesFromHDD != 2<<10 || f.m.lists.dyn[7] == nil {
		t.Fatalf("DegradedServes = %d, %d requested bytes from HDD: want the list read around the SSD, mapping kept", s.DegradedServes, s.ListReqBytesFromHDD)
	}

	// Device recovers, cooldown elapses: the same entry hits SSD again.
	fd.failWrites = false
	f.clock.AdvanceAttr(breakerCooldown+time.Millisecond, simclock.CompOther)
	if f.m.DegradedMode() {
		t.Fatal("breaker still open after cooldown")
	}
	data, src := f.m.GetResult(1)
	if src != ResultFromSSD {
		t.Fatalf("post-cooldown probe served from %v, want SSD", src)
	}
	if !bytes.Equal(data, entryOf(1, 0xAB, f.m.cfg.ResultEntryBytes)) {
		t.Fatal("post-cooldown read returned wrong bytes")
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushDropsWhileBreakerOpen: with the breaker open, flushes drop their
// batches with accounting instead of hammering the failing device.
func TestFlushDropsWhileBreakerOpen(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.BreakerThreshold = 1
	f, fd := newFlakyFixture(t, cfg)
	fd.failWrites = true
	putEntries(t, f, 1, 11) // first flush fails, trips, requeues 6
	s := f.m.Stats()
	if s.BreakerTrips != 1 || s.ResultsRequeued != 6 {
		t.Fatalf("trips %d requeued %d, want 1/6", s.BreakerTrips, s.ResultsRequeued)
	}
	if rem := flushResults(f.m); rem != 0 {
		t.Fatalf("flushResults left %d entries", rem)
	}
	s = f.m.Stats()
	if s.ResultsDropped != 6 {
		t.Fatalf("ResultsDropped = %d, want 6", s.ResultsDropped)
	}
	// The drop must not have touched the device: still exactly one error.
	if s.SSDWriteErrors != 1 {
		t.Fatalf("SSDWriteErrors = %d, want 1 (drops bypass the device)", s.SSDWriteErrors)
	}
}

// TestLRUEvictionDropsWhileBreakerOpen: the baseline per-entry write path
// honors the breaker too.
func TestLRUEvictionDropsWhileBreakerOpen(t *testing.T) {
	cfg := testConfig(PolicyLRU)
	cfg.BreakerThreshold = 1
	f, fd := newFlakyFixture(t, cfg)
	fd.failWrites = true
	putEntries(t, f, 1, 6) // evicts qid 1 → write fails → trip + drop
	putEntries(t, f, 7, 7) // evicts qid 2 → dropped without device access
	s := f.m.Stats()
	if s.SSDWriteErrors != 1 || s.BreakerTrips != 1 {
		t.Fatalf("errors %d trips %d, want 1/1", s.SSDWriteErrors, s.BreakerTrips)
	}
	if s.ResultsDropped != 2 {
		t.Fatalf("ResultsDropped = %d, want 2", s.ResultsDropped)
	}
	if s.ExtentsQuarantined != 1 || s.QuarantinedBytes != f.m.cfg.ResultEntryBytes {
		t.Fatalf("quarantine accounting: %d extents / %d bytes", s.ExtentsQuarantined, s.QuarantinedBytes)
	}
}

// TestLRUBaselineLosesWhatItCannotPlace: the baseline discards a list longer
// than its whole region, and a list or result entry its region can no longer
// hold once failed writes have quarantined it and nothing is left to evict —
// each loss counted once.
func TestLRUBaselineLosesWhatItCannotPlace(t *testing.T) {
	cfg := packerConfig(PolicyLRU)
	cfg.SSDListBytes = 2 * cfg.BlockBytes
	cfg.BreakerThreshold = -1
	f, fd := newFlakyFixture(t, cfg)
	flush := func(term workload.TermID, n int64) {
		f.m.flushListToSSD(memList{term: term, prefix: f.wantList(t, term, 0, n)})
	}
	flush(0, 40<<10) // longer than the 32 KiB list region
	fd.failWrites = true
	flush(1, 20<<10)       // quarantines 20 KiB of it
	putEntries(t, f, 1, 8) // four failed entry writes quarantine the result region
	fd.failWrites = false
	flush(2, 16<<10)       // 12 KiB are left
	putEntries(t, f, 9, 9) // no room, no entry to free
	s := f.m.Stats()
	if s.ListsDiscarded != 3 || s.ResultsDropped != 5 || s.ExtentsQuarantined != 5 || s.ListWritesToSSD+s.ResultBytesToSSD != 0 {
		t.Fatalf("%d lists discarded, %d entries dropped, %d extents quarantined, %d list writes, %d result bytes written: want 3/5/5/0/0",
			s.ListsDiscarded, s.ResultsDropped, s.ExtentsQuarantined, s.ListWritesToSSD, s.ResultBytesToSSD)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTrimErrorCounted: failed trims are accounted (they feed the breaker
// streak) without disturbing the expiry bookkeeping that issued them.
func TestTrimErrorCounted(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = time.Millisecond
	f, fd := newFlakyFixture(t, cfg)
	putEntries(t, f, 1, 11) // RB with qids 1..6 on SSD
	fd.failTrims = true
	f.clock.AdvanceAttr(2*time.Millisecond, simclock.CompOther)
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatal("expired probe not a miss")
	}
	s := f.m.Stats()
	if s.SSDTrimErrors != 1 {
		t.Fatalf("SSDTrimErrors = %d, want 1", s.SSDTrimErrors)
	}
	if s.ResultsExpired == 0 || s.L2ResultEvictions != 1 {
		t.Fatalf("expiry accounting: expired %d L2 evictions %d", s.ResultsExpired, s.L2ResultEvictions)
	}
	if fd.trims != 1 {
		t.Fatalf("device saw %d trims, want 1", fd.trims)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestListReadErrorFallsBackToHDD: an SSD list extent that fails a read is
// quarantined and the query completes from the HDD with correct bytes —
// before this PR the whole read errored out.
func TestListReadErrorFallsBackToHDD(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	f, fd := newFlakyFixture(t, cfg)
	termA := workload.TermID(20)
	nA := f.readSome(t, termA, 12<<10)
	for i := 0; i < 20; i++ { // force termA's eviction → flush to SSD
		f.readSome(t, workload.TermID(30+i), 12<<10)
	}
	f.m.flush(&f.m.lists, nil)
	if f.m.Stats().ListWritesToSSD == 0 {
		t.Fatal("setup: no list flushed to SSD")
	}
	if f.m.ssdListFor(termA) == nil {
		t.Skip("termA not resident on SSD under this configuration")
	}

	fd.failReads = true
	evictionsBefore := f.m.Stats().L2ListEvictions
	got := make([]byte, nA)
	if err := f.m.ReadListRange(termA, 0, got); err != nil {
		t.Fatalf("read with failing SSD did not fall back: %v", err)
	}
	if !bytes.Equal(got, f.wantList(t, termA, 0, nA)) {
		t.Fatal("fallback read returned wrong bytes")
	}
	s := f.m.Stats()
	if s.SSDReadErrors == 0 {
		t.Fatal("SSD read error not counted")
	}
	if s.L2ListEvictions == evictionsBefore || s.ExtentsQuarantined == 0 {
		t.Fatal("failing list extent not quarantined")
	}
	if f.m.ssdListFor(termA) != nil {
		t.Fatal("failing list still resident on SSD")
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestListFlushWriteErrorQuarantines: a failed list flush discards the list
// (still on HDD) and retires the extent.
func TestListFlushWriteErrorQuarantines(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 64 << 10
	f, fd := newFlakyFixture(t, cfg)
	fd.failWrites = true
	for i := 0; i < 20; i++ {
		f.readSome(t, workload.TermID(30+i), 12<<10)
	}
	f.m.flush(&f.m.lists, nil)
	s := f.m.Stats()
	if s.SSDWriteErrors == 0 || s.ListsDiscarded == 0 {
		t.Fatalf("write errors %d discarded %d, want both > 0", s.SSDWriteErrors, s.ListsDiscarded)
	}
	if s.ExtentsQuarantined == 0 {
		t.Fatal("failed list extents not quarantined")
	}
	if s.ListWritesToSSD != 0 {
		t.Fatalf("%d list writes counted despite failing device", s.ListWritesToSSD)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerDisabled: a negative threshold turns the breaker off — errors
// are still counted but never open the circuit.
func TestBreakerDisabled(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.BreakerThreshold = -1
	f, fd := newFlakyFixture(t, cfg)
	fd.failWrites = true
	putEntries(t, f, 1, 30)
	flushResults(f.m)
	s := f.m.Stats()
	if s.SSDWriteErrors < 2 {
		t.Fatalf("setup: only %d write errors", s.SSDWriteErrors)
	}
	if s.BreakerTrips != 0 || f.m.DegradedMode() {
		t.Fatal("disabled breaker tripped")
	}
}

// TestPinResultWriteErrorLeavesSlotReusable: a failed static pin returns
// false without consuming the slot; the same entry pins fine on retry.
func TestPinResultWriteErrorLeavesSlotReusable(t *testing.T) {
	f, fd := newFlakyFixture(t, testConfig(PolicyCBSLRU))
	entry := func(qid uint64) []byte { return entryOf(qid, 0xCD, f.m.cfg.ResultEntryBytes) }
	if !f.m.PinResult(1, entry(1)) {
		t.Fatal("first pin failed")
	}
	fd.failWrites = true
	if f.m.PinResult(2, entry(2)) {
		t.Fatal("pin succeeded on a failing device")
	}
	if got := f.m.Stats().SSDWriteErrors; got != 1 {
		t.Fatalf("SSDWriteErrors = %d, want 1", got)
	}
	fd.failWrites = false
	if !f.m.PinResult(2, entry(2)) {
		t.Fatal("retry pin failed: slot not reusable")
	}
	for _, qid := range []uint64{1, 2} {
		if _, src := f.m.GetResult(qid); src != ResultFromSSD {
			t.Fatalf("pinned qid %d not served from SSD", qid)
		}
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPinResultCursorAdvances: pinning to budget exhaustion moves the fill
// cursor through each static RB in turn, leaving the last one full, and
// stops exactly at the static budget.
func TestPinResultCursorAdvances(t *testing.T) {
	f, _ := newFlakyFixture(t, testConfig(PolicyCBSLRU))
	perRB := f.m.entriesPerRB
	budgetRBs := int(f.m.staticBudget(&f.m.results) / f.m.cfg.BlockBytes)
	want := perRB * budgetRBs
	var pinned int
	for qid := uint64(1); ; qid++ {
		if !f.m.PinResult(qid, entryOf(qid, 0xEF, f.m.cfg.ResultEntryBytes)) {
			break
		}
		pinned++
		if pinned > want {
			t.Fatalf("pinned %d entries past the static budget (%d)", pinned, want)
		}
	}
	if pinned != want {
		t.Fatalf("pinned %d entries, want %d", pinned, want)
	}
	if x, taken := f.m.results.staticOpen, f.m.results.staticTaken; x == nil ||
		x.fill()+f.m.cfg.ResultEntryBytes <= x.bytes || taken != int64(budgetRBs)*f.m.cfg.BlockBytes {
		t.Fatalf("open RB %+v, %d bytes taken: want the last of %d RBs full", x, taken, budgetRBs)
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFreqCapBoundsTrackingMaps: the per-term and per-query frequency maps
// stay bounded under an unbounded stream of distinct keys.
func TestFreqCapBoundsTrackingMaps(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.FreqCap = 8
	f, _ := newFlakyFixture(t, cfg)
	for i := 0; i < 200; i++ {
		f.m.GetResult(uint64(1000 + i))
		f.readSome(t, workload.TermID(i%f.spec.VocabSize), 1<<10)
	}
	if len(f.m.queryFreq) > 8 {
		t.Fatalf("queryFreq grew to %d entries, cap 8", len(f.m.queryFreq))
	}
	if len(f.m.termFreq) > 8 {
		t.Fatalf("termFreq grew to %d entries, cap 8", len(f.m.termFreq))
	}
}

// TestBumpFreqDecayPreservesOrder: the decay sweep halves uniformly, so
// hot keys stay ranked above cold ones and the map never exceeds its cap.
func TestBumpFreqDecayPreservesOrder(t *testing.T) {
	m := map[int]int64{}
	for i := 0; i < 64; i++ {
		bumpFreq(m, 1, 16) // hot
	}
	for i := 0; i < 8; i++ {
		bumpFreq(m, 2, 16) // warm
	}
	for k := 3; k < 40; k++ {
		bumpFreq(m, k, 16) // cold spray forcing decay sweeps
		if len(m) > 16 {
			t.Fatalf("map grew to %d entries, cap 16", len(m))
		}
	}
	if m[1] <= m[2] {
		t.Fatalf("decay inverted hot/warm order: hot %d <= warm %d", m[1], m[2])
	}
	// Unlimited maps never decay.
	u := map[int]int64{}
	for k := 0; k < 100; k++ {
		bumpFreq(u, k, 0)
	}
	if len(u) != 100 {
		t.Fatalf("uncapped map pruned to %d entries", len(u))
	}
}

// TestDivergenceUnderInjectedFaults is the extended divergence test of the
// stats≡trace contract (DESIGN §9): under probabilistic fault injection —
// transient errors on every op class and the sticky bad extents they leave —
// the event stream a sink receives folds to core.Stats exactly, the
// invariants hold after every step, every result hit is the query's own entry
// although freed entry buffers are poisoned, and nothing panics. Each policy runs
// three times: over the fixture's roomy list region; over one of four blocks,
// where packed extents are replaced, quarantined and superseded all the time;
// and over four blocks with result and list TTLs of about forty steps, so
// entries also expire on the SSD, lists inside packed extents and inside the
// list write buffer among them.
func TestDivergenceUnderInjectedFaults(t *testing.T) {
	spec := storage.FaultSpec{
		Seed:       99,
		Read:       0.05,
		Write:      0.05,
		Trim:       0.05,
		StickyProb: 0.5,
	}
	for _, policy := range allPolicies() {
		for _, v := range []struct {
			suffix     string
			fourBlocks bool          // of 16 KiB, so the fixture's short lists wrap it
			ttl        time.Duration // the clock also moves 1 ms a step
		}{{"", false, 0}, {"_four_blocks", true, 0}, {"_ttl", true, 40 * time.Millisecond}} {
			cfg := testConfig(policy)
			cfg.BreakerThreshold = 2 // make degraded windows likely
			if v.fourBlocks {
				cfg.BlockBytes, cfg.ResultEntryBytes = 16<<10, 4<<10
				cfg.MemListBytes, cfg.SSDListBytes = 4*cfg.BlockBytes, 4*cfg.BlockBytes
			}
			cfg.ResultTTL, cfg.ListTTL = v.ttl, v.ttl
			t.Run(policy.String()+v.suffix, func(t *testing.T) {
				f := newFaultFixture(t, cfg, func(inner storage.Device) storage.Device {
					return storage.NewFaultyDevice(&flakyDevice{inner: inner}, spec, nil)
				})
				var folded Stats
				f.m.SetEventSink(folded.apply)

				if policy == PolicyCBSLRU {
					for qid := uint64(1); qid <= 10; qid++ {
						f.m.PinResult(qid, entryOf(qid, 0x11, cfg.ResultEntryBytes))
					}
					for term := workload.TermID(0); term < 5; term++ {
						f.m.PinList(term)
					}
				}

				rng := simclock.NewRNG(17)
				for i := 0; i < 4000; i++ {
					if v.ttl > 0 {
						f.clock.AdvanceAttr(time.Millisecond, simclock.CompOther)
					}
					qid := rng.Uint64() % 300
					if got, src := f.m.GetResult(qid); src != ResultMiss {
						checkResultHit(t, i, qid, got, byte(qid), 0x11) // computed, or pinned
					} else if err := f.m.PutResult(qid, entryOf(qid, byte(qid), cfg.ResultEntryBytes)); err != nil {
						t.Fatal(err)
					}
					poisonFreeEntries(f.m) // a freed buffer something still reads shows as wrong bytes
					PoisonFreePrefixes(f.m)
					term := workload.TermID(rng.Uint64() % uint64(f.spec.VocabSize))
					n := int64(1<<10) + int64(rng.Uint64()%(16<<10))
					if total := f.ix.ListBytes(term); n > total {
						n = total
					}
					buf := make([]byte, n)
					if err := f.m.ReadListRange(term, 0, buf); err != nil {
						t.Fatalf("iter %d: list read failed despite HDD fallback: %v", i, err)
					}
					if !bytes.Equal(buf, f.wantList(t, term, 0, n)) {
						t.Fatalf("iter %d: term %d read returned bytes that are not the list's", i, term)
					}
					if err := f.m.CheckInvariants(); err != nil {
						t.Fatalf("iter %d: %v", i, err)
					}
				}
				flushResults(f.m)
				f.m.flush(&f.m.lists, nil)

				st := f.m.Stats()
				if st.SSDReadErrors+st.SSDWriteErrors+st.SSDTrimErrors == 0 {
					t.Fatal("fault injection produced no device errors — test exercised nothing")
				}
				if v.fourBlocks && !policyRegistry[policy].Baseline && (st.ListOverwritesInPlace == 0 || st.ListsPerSSDWrite() < 2) {
					t.Fatalf("%d in-place overwrites at %.1f lists per write: packed extents were not replaced",
						st.ListOverwritesInPlace, st.ListsPerSSDWrite())
				}
				if v.ttl > 0 && (st.ResultsExpired == 0 || st.ListsExpired == 0) {
					t.Fatalf("%d results and %d lists expired: the TTL paths were not exercised", st.ResultsExpired, st.ListsExpired)
				}
				if folded != st {
					t.Errorf("stats≡trace divergence: the events fold to\n%+v\nthe manager holds\n%+v", folded, st)
				}
				if err := f.m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
