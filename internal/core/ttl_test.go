package core

import (
	"testing"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

func TestResultTTLExpiresL1(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = time.Second
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	f.m.PutResult(1, entryOf(1, 5, size))
	if _, src := f.m.GetResult(1); src != ResultFromMemory {
		t.Fatal("fresh entry missed")
	}
	f.clock.AdvanceAttr(2*time.Second, simclock.CompOther)
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatalf("expired entry served (src=%v)", src)
	}
	if f.m.Stats().ResultsExpired != 1 {
		t.Fatal("expiry not counted")
	}
	// An entry that expires in L1 is dropped on eviction, not buffered.
	f.m.PutResult(2, entryOf(2, 5, size))
	f.clock.AdvanceAttr(2*time.Second, simclock.CompOther)
	for q := uint64(3); q <= 7; q++ {
		f.m.PutResult(q, entryOf(q, 5, size))
	}
	if got := f.m.Stats().ResultsExpired; got != 2 || len(f.m.results.buf) != 0 {
		t.Fatalf("%d results expired, %d buffered: want the stale eviction dropped and counted", got, len(f.m.results.buf))
	}
}

func TestResultTTLExpiresSSDCopies(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = 10 * time.Second
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	for q := uint64(1); q <= 20; q++ {
		f.m.PutResult(q, entryOf(q, byte(q), size))
	}
	// Find one entry on SSD.
	var onSSD uint64
	for q := uint64(1); q <= 6; q++ {
		if _, ok := f.m.results.dyn[q]; ok {
			onSSD = q
			break
		}
	}
	if onSSD == 0 {
		t.Skip("nothing reached SSD")
	}
	f.clock.AdvanceAttr(time.Minute, simclock.CompOther)
	if _, src := f.m.GetResult(onSSD); src != ResultMiss {
		t.Fatalf("expired SSD entry served (src=%v)", src)
	}
	if _, ok := f.m.results.dyn[onSSD]; ok {
		t.Fatal("expired SSD mapping not removed")
	}
}

// TestExpiredBufferedResultWrittenOnce: a lookup that finds only an expired
// copy in the write buffer drops it, so the recomputed entry, once evicted,
// is the only copy of its query that reaches the SSD.
func TestExpiredBufferedResultWrittenOnce(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = time.Second
	f := newFixture(t, cfg)
	putEntries(t, f, 1, 6) // query 1 waits in the write buffer
	f.clock.AdvanceAttr(2*time.Second, simclock.CompOther)
	if _, src := f.m.GetResult(1); src != ResultMiss {
		t.Fatalf("expired buffered entry served (src=%v)", src)
	}
	putEntries(t, f, 1, 1)     // recomputed
	putEntries(t, f, 100, 109) // evicts it again and fills an RB
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s := f.m.Stats(); copiesOf(f, 1) != 1 || s.RBFlushes != 1 || s.ResultsExpired != 6 {
		t.Fatalf("%d copies of query 1 in the write buffer and on the SSD, %d RBs, %d expired: want 1, 1, 6",
			copiesOf(f, 1), s.RBFlushes, s.ResultsExpired)
	}
}

func TestResultTTLRefreshOnReput(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ResultTTL = time.Second
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	f.m.PutResult(1, entryOf(1, 5, size))
	f.clock.AdvanceAttr(2*time.Second, simclock.CompOther)
	f.m.PutResult(1, entryOf(1, 5, size)) // recompute refreshes the stamp
	if _, src := f.m.GetResult(1); src != ResultFromMemory {
		t.Fatal("refreshed entry missed")
	}
	if got := f.m.Stats().ResultsExpired; got != 1 {
		t.Fatalf("ResultsExpired = %d, want the stale content's 1", got)
	}
}

func TestListTTLExpires(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ListTTL = time.Second
	f := newFixture(t, cfg)
	term := workload.TermID(10)
	f.readSome(t, term, 8<<10)
	hddBefore := f.m.Stats().ListBytesFromHDD
	f.readSome(t, term, 8<<10) // fresh: memory hit
	if f.m.Stats().ListBytesFromHDD != hddBefore {
		t.Fatal("fresh list re-read from HDD")
	}
	f.clock.AdvanceAttr(time.Minute, simclock.CompOther)
	f.readSome(t, term, 8<<10) // expired: back to HDD
	s := f.m.Stats()
	if s.ListBytesFromHDD == hddBefore {
		t.Fatal("expired list served from cache")
	}
	if s.ListsExpired == 0 {
		t.Fatal("list expiry not counted")
	}
}

func TestExpiredListNotFlushedToSSD(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	cfg.ListTTL = time.Second
	cfg.MemListBytes = 64 << 10
	f := newFixture(t, cfg)
	f.readSome(t, 20, 12<<10)
	f.clock.AdvanceAttr(time.Minute, simclock.CompOther) // entry is now stale in L1
	writesBefore := f.m.Stats().ListWritesToSSD
	// Evict it by filling L1.
	for i := 0; i < 20; i++ {
		f.readSome(t, workload.TermID(40+i), 12<<10)
	}
	// The stale term-20 prefix must not have been written; other flushes
	// may occur, so check the SSD does not hold term 20.
	if f.m.ssdListFor(20) != nil {
		t.Fatal("expired list flushed to SSD")
	}
	if got := f.m.Stats().ListsExpired; got != 1 {
		t.Fatalf("ListsExpired = %d, want term 20's 1", got)
	}
	_ = writesBefore
}

func TestZeroTTLMeansStatic(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	size := f.m.Config().ResultEntryBytes
	f.m.PutResult(1, entryOf(1, 5, size))
	f.clock.AdvanceAttr(24*365*time.Hour, simclock.CompOther)
	if _, src := f.m.GetResult(1); src != ResultFromMemory {
		t.Fatal("static-scenario entry expired")
	}
	if f.m.Stats().ResultsExpired != 0 || f.m.Stats().ListsExpired != 0 {
		t.Fatal("expiry counted in static scenario")
	}
}

func TestStaticPinsExemptFromTTL(t *testing.T) {
	cfg := testConfig(PolicyCBSLRU)
	cfg.ResultTTL = time.Second
	f := newFixture(t, cfg)
	size := f.m.Config().ResultEntryBytes
	if !f.m.PinResult(9, entryOf(9, 3, size)) {
		t.Fatal("pin failed")
	}
	f.clock.AdvanceAttr(time.Hour, simclock.CompOther)
	if _, src := f.m.GetResult(9); src != ResultFromSSD {
		t.Fatalf("static pin expired (src=%v)", src)
	}
}
