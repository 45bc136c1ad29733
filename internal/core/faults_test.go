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

	"hybridstore/internal/index"
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
	hdd := storage.NewMemDevice("hdd", index.RequiredBytes(spec)+4096, clock, storage.DefaultMemParams())
	ix, err := index.Build(hdd, spec)
	if err != nil {
		t.Fatal(err)
	}
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
	if got := f.m.WriteBufferLen(); got != 6 {
		t.Fatalf("write buffer %d entries after requeue, want 6", got)
	}
	if len(f.m.resultLoc) != 0 {
		t.Fatalf("failed flush left %d SSD mappings", len(f.m.resultLoc))
	}

	// Second attempt: the re-queued batch is dropped, not re-queued again,
	// and the progress check stops the loop instead of spinning.
	if rem := f.m.FlushWriteBuffer(); rem != 0 {
		t.Fatalf("FlushWriteBuffer left %d entries", rem)
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
	if len(f.m.resultLoc) != 6 {
		t.Fatalf("setup: %d SSD mappings, want 6", len(f.m.resultLoc))
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
	if len(f.m.resultLoc) != 0 {
		t.Fatalf("quarantined RB left %d mappings", len(f.m.resultLoc))
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
	if len(f.m.resultLoc) != 3 {
		t.Fatalf("setup: %d SSD mappings, want 3", len(f.m.resultLoc))
	}
	fd.failReads = true
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatal("read-error probe not a miss")
	}
	s := f.m.Stats()
	if s.SSDReadErrors != 1 || s.ExtentsQuarantined != 1 {
		t.Fatalf("errors %d quarantined %d, want 1/1", s.SSDReadErrors, s.ExtentsQuarantined)
	}
	if s.QuarantinedBytes != f.m.cfg.ResultEntryBytes {
		t.Fatalf("quarantined %d bytes, want one entry (%d)", s.QuarantinedBytes, f.m.cfg.ResultEntryBytes)
	}
	if _, ok := f.m.resultLoc[1]; ok {
		t.Fatal("failed entry still mapped")
	}
	if len(f.m.resultLoc) != 2 {
		t.Fatalf("siblings lost: %d mappings, want 2", len(f.m.resultLoc))
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
	if _, ok := f.m.resultLoc[1]; !ok {
		t.Fatal("degraded probe dropped the mapping")
	}

	// Device recovers, cooldown elapses: the same entry hits SSD again.
	fd.failWrites = false
	f.clock.Advance(f.m.cfg.BreakerCooldown + time.Millisecond)
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
	if rem := f.m.FlushWriteBuffer(); rem != 0 {
		t.Fatalf("FlushWriteBuffer left %d entries", rem)
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

// TestTrimErrorCounted: failed trims are accounted (they feed the breaker
// streak) without disturbing the expiry bookkeeping that issued them.
func TestTrimErrorCounted(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = time.Millisecond
	f, fd := newFlakyFixture(t, cfg)
	putEntries(t, f, 1, 11) // RB with qids 1..6 on SSD
	fd.failTrims = true
	f.clock.Advance(2 * time.Millisecond)
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
	f.m.flushListBuffer()
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
	f.m.flushListBuffer()
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
	f.m.FlushWriteBuffer()
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

// TestPinResultCursorAdvances: pinning to budget exhaustion moves the
// first-free cursor monotonically past full static RBs (O(N) total) and
// stops exactly at the static budget.
func TestPinResultCursorAdvances(t *testing.T) {
	f, _ := newFlakyFixture(t, testConfig(PolicyCBSLRU))
	perRB := f.m.entriesPerRB
	budgetRBs := int(f.m.StaticResultBudget() / f.m.cfg.BlockBytes)
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
	if f.m.staticRBScan != len(f.m.staticRBs) {
		t.Fatalf("cursor at %d, want %d (all RBs full)", f.m.staticRBScan, len(f.m.staticRBs))
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

// eventSums accumulates an event stream for stats≡trace verification.
type eventSums struct {
	ioErrors, ioErrorBytes int64
	degraded               int64
	listReadBytes          map[Level]int64
	resultHits             map[Level]int64
	resultMisses           int64
	resultEvicts           map[Level]int64
	listEvicts             map[Level]int64
	resultFlushBytes       int64
	listFlushBytes         int64
	listFlushes            int64
}

func newEventSums() *eventSums {
	return &eventSums{
		listReadBytes: map[Level]int64{},
		resultHits:    map[Level]int64{},
		resultEvicts:  map[Level]int64{},
		listEvicts:    map[Level]int64{},
	}
}

func (s *eventSums) handle(e Event) {
	switch e.Kind {
	case EvIOError:
		s.ioErrors++
		s.ioErrorBytes += e.Bytes
	case EvDegraded:
		s.degraded++
	case EvListRead:
		s.listReadBytes[e.Level] += e.Bytes
	case EvResultHit:
		s.resultHits[e.Level]++
	case EvResultMiss:
		s.resultMisses++
	case EvResultEvict:
		s.resultEvicts[e.Level]++
	case EvListEvict:
		s.listEvicts[e.Level]++
	case EvResultFlush:
		s.resultFlushBytes += e.Bytes
	case EvListFlush:
		s.listFlushBytes += e.Bytes
		s.listFlushes++
	}
}

// check asserts every stats≡trace equation against the manager's counters.
func (s *eventSums) check(t *testing.T, st Stats) {
	t.Helper()
	eq := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("stats≡trace divergence: %s: events %d, stats %d", name, got, want)
		}
	}
	eq("io errors", s.ioErrors, st.SSDReadErrors+st.SSDWriteErrors+st.SSDTrimErrors)
	eq("degraded serves", s.degraded, st.DegradedServes)
	eq("list bytes mem", s.listReadBytes[LevelMem], st.ListBytesFromMem)
	eq("list bytes ssd", s.listReadBytes[LevelSSD], st.ListBytesFromSSD)
	eq("list bytes hdd", s.listReadBytes[LevelHDD], st.ListBytesFromHDD)
	eq("result hits mem", s.resultHits[LevelMem], st.ResultHitsMem)
	eq("result hits ssd", s.resultHits[LevelSSD], st.ResultHitsSSD)
	eq("result misses", s.resultMisses, st.ResultMisses)
	eq("result evicts mem", s.resultEvicts[LevelMem], st.L1ResultEvictions)
	eq("result evicts ssd", s.resultEvicts[LevelSSD], st.L2ResultEvictions+st.RBRetired)
	eq("list evicts mem", s.listEvicts[LevelMem], st.L1ListEvictions)
	eq("list evicts ssd", s.listEvicts[LevelSSD], st.L2ListEvictions)
	eq("result flush bytes", s.resultFlushBytes, st.ResultBytesToSSD)
	eq("list flush bytes", s.listFlushBytes, st.ListBytesToSSD)
	eq("list flushes", s.listFlushes, st.ListWritesToSSD)
}

// TestDivergenceUnderInjectedFaults is the extended divergence test of the
// stats≡trace contract (DESIGN §9): under probabilistic fault injection —
// transient errors on every op class, sticky bad extents, a pre-seeded dead
// range — summing event payloads still reproduces core.Stats exactly, the
// invariants hold after every step, every result hit is the query's own entry
// although freed entry buffers are poisoned, and nothing panics. Each policy runs
// twice: over the fixture's roomy list region, and over one of four blocks,
// where packed extents are replaced, quarantined and superseded all the time.
func TestDivergenceUnderInjectedFaults(t *testing.T) {
	spec := storage.FaultSpec{
		Seed:       99,
		Read:       storage.OpFaults{ErrProb: 0.05},
		Write:      storage.OpFaults{ErrProb: 0.05},
		Trim:       storage.OpFaults{ErrProb: 0.05},
		StickyProb: 0.5,
		BadExtents: 1,
	}
	for _, policy := range allPolicies() {
		for _, fourBlocks := range []bool{false, true} {
			cfg := testConfig(policy)
			cfg.BreakerThreshold = 2 // make degraded windows likely
			name := policy.String()
			if fourBlocks { // of 16 KiB, so the fixture's short lists wrap it
				cfg.BlockBytes, cfg.ResultEntryBytes = 16<<10, 4<<10
				cfg.MemListBytes, cfg.SSDListBytes = 4*cfg.BlockBytes, 4*cfg.BlockBytes
				name += "_four_blocks"
			}
			t.Run(name, func(t *testing.T) {
				f := newFaultFixture(t, cfg, func(inner storage.Device) storage.Device {
					return storage.NewFaultyDevice(&flakyDevice{inner: inner}, spec, nil)
				})
				sums := newEventSums()
				f.m.SetEventSink(sums.handle)

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
					qid := rng.Uint64() % 300
					if got, src := f.m.GetResult(qid); src != ResultMiss {
						checkResultHit(t, i, qid, got, byte(qid), 0x11) // computed, or pinned
					} else if err := f.m.PutResult(qid, entryOf(qid, byte(qid), cfg.ResultEntryBytes)); err != nil {
						t.Fatal(err)
					}
					poisonFreeEntries(f.m) // a freed buffer something still reads shows as wrong bytes
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
				f.m.FlushWriteBuffer()
				f.m.flushListBuffer()

				st := f.m.Stats()
				if st.SSDReadErrors+st.SSDWriteErrors+st.SSDTrimErrors == 0 {
					t.Fatal("fault injection produced no device errors — test exercised nothing")
				}
				if fourBlocks && !policyRegistry[policy].Baseline && (st.ListOverwritesInPlace == 0 || st.ListsPerSSDWrite() < 2) {
					t.Fatalf("%d in-place overwrites at %.1f lists per write: packed extents were not replaced",
						st.ListOverwritesInPlace, st.ListsPerSSDWrite())
				}
				sums.check(t, st)
				if err := f.m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
