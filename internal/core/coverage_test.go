package core

import (
	"testing"
	"time"

	"hybridstore/internal/workload"
)

func TestStatsAccessors(t *testing.T) {
	s := Stats{
		ResultHitsMem: 3, ResultHitsSSD: 1, ResultMisses: 4,
		ListRequests: 10, ListHits: 6,
		ListBytesRequested: 1000, ListReqBytesFromHDD: 250,
		Queries: 4, QueryTime: 2 * time.Second,
	}
	if s.ResultLookups() != 8 {
		t.Fatalf("ResultLookups = %d", s.ResultLookups())
	}
	if s.ResultHitRatio() != 0.5 {
		t.Fatalf("ResultHitRatio = %v", s.ResultHitRatio())
	}
	if s.ListRequestHitRatio() != 0.6 {
		t.Fatalf("ListRequestHitRatio = %v", s.ListRequestHitRatio())
	}
	if s.ListHitRatio() != 0.75 {
		t.Fatalf("ListHitRatio = %v", s.ListHitRatio())
	}
	wantRIC := (4.0 + 0.75*10) / 18
	if got := s.CombinedHitRatio(); got < wantRIC-1e-9 || got > wantRIC+1e-9 {
		t.Fatalf("CombinedHitRatio = %v, want %v", got, wantRIC)
	}
	if s.MeanQueryTime() != 500*time.Millisecond {
		t.Fatalf("MeanQueryTime = %v", s.MeanQueryTime())
	}
	if s.Throughput() != 2 {
		t.Fatalf("Throughput = %v", s.Throughput())
	}
	var empty Stats
	if empty.ResultHitRatio() != 0 || empty.ListHitRatio() != 0 ||
		empty.ListRequestHitRatio() != 0 || empty.CombinedHitRatio() != 0 ||
		empty.MeanQueryTime() != 0 || empty.Throughput() != 0 {
		t.Fatal("empty stats ratios not zero")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig(10 << 20)
	if cfg.MemResultBytes != 2<<20 || cfg.MemListBytes != 8<<20 {
		t.Fatalf("20/80 split wrong: %d/%d", cfg.MemResultBytes, cfg.MemListBytes)
	}
	if cfg.SSDResultBytes != 10*cfg.MemResultBytes || cfg.SSDListBytes != 100*cfg.MemListBytes {
		t.Fatal("SSD region ratios wrong")
	}
	if cfg.BlockBytes != 128<<10 || cfg.ResultEntryBytes != 20<<10 || cfg.WindowW != 5 {
		t.Fatalf("paper constants wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateBranches(t *testing.T) {
	base := testConfig(PolicyCBLRU)
	cases := []func(*Config){
		func(c *Config) { c.MemListBytes = 0 },
		func(c *Config) { c.SSDResultBytes = -1 },
		func(c *Config) { c.Policy = Policy(9) },
		func(c *Config) { c.SSDResultBytes = 1 },                      // below one block
		func(c *Config) { c.SSDListBytes = 1 },                        // below one block
		func(c *Config) { c.MemResultBytes = c.ResultEntryBytes - 1 }, // can't hold one entry
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestManagerAccessors(t *testing.T) {
	f := newFixture(t, testConfig(PolicyCBLRU))
	if f.m.Policy() != PolicyCBLRU {
		t.Fatal("Policy accessor wrong")
	}
	if f.m.NumDocs() != f.ix.NumDocs() {
		t.Fatal("NumDocs mismatch")
	}
	if f.m.ListBytes(3) != f.ix.ListBytes(3) {
		t.Fatal("ListBytes mismatch")
	}
}

func TestPlaceListExtentEvictionAndWorstCase(t *testing.T) {
	// Force the region into fragmentation so placement runs through the
	// eviction (step 4) and whole-list-sweep (step 5) paths.
	cfg := testConfig(PolicyCBLRU)
	cfg.MemListBytes = 512 << 10 // big L1 entries possible
	cfg.SSDListBytes = 6 * cfg.BlockBytes
	f := newFixture(t, cfg)

	// Fill the region with six 1-block extents via direct flushes, the
	// write buffer forced out after each.
	for i := 0; i < 6; i++ {
		ml := memList{term: workload.TermID(100 + i), prefix: make([]byte, 8<<10),
			loadedAt: f.clock.Now()}
		f.m.termFreq[ml.term] = 5
		f.m.flushListToSSD(ml)
		f.m.flush(&f.m.lists, nil)
	}
	if f.m.lists.alloc.FreeBytes() != 0 {
		t.Fatalf("region not full: %d free", f.m.lists.alloc.FreeBytes())
	}
	// A 2-block entry cannot overwrite in place (no same-size candidate),
	// so placement must evict window entries (step 4).
	big := memList{term: 50, prefix: make([]byte, 130<<10), loadedAt: f.clock.Now()}
	f.m.termFreq[big.term] = 50
	f.m.flushListToSSD(big)
	if f.m.ssdListFor(50) == nil {
		t.Fatal("2-block entry not placed")
	}
	if f.m.Stats().L2ListEvictions == 0 {
		t.Fatal("placement evicted nothing")
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A 4-block entry exceeds what the W=5 window can free next to the
	// 2-block resident: it must widen to the whole-list sweep (step 5).
	huge := memList{term: 51, prefix: make([]byte, 450<<10), loadedAt: f.clock.Now()}
	f.m.termFreq[huge.term] = 80
	f.m.flushListToSSD(huge)
	if f.m.ssdListFor(51) == nil {
		t.Fatal("4-block entry not placed")
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDropSSDListRewritesLargerPrefix(t *testing.T) {
	cfg := testConfig(PolicyCBLRU)
	f := newFixture(t, cfg)
	small := memList{term: 60, prefix: make([]byte, 8<<10), loadedAt: f.clock.Now()}
	f.m.termFreq[60] = 10
	f.m.flushListToSSD(small)
	f.m.flush(&f.m.lists, nil)
	first := f.m.ssdListFor(60)
	if first == nil || first.ext == nil || first.bytes != 8<<10 {
		t.Fatalf("first flush: %+v", first)
	}
	// A larger prefix replaces the old extent.
	bigger := memList{term: 60, prefix: make([]byte, 200<<10), loadedAt: f.clock.Now()}
	f.m.flushListToSSD(bigger)
	second := f.m.ssdListFor(60)
	if second == nil || second.bytes != 200<<10 {
		t.Fatalf("second flush: %+v", second)
	}
	if f.m.Stats().L2ListEvictions == 0 {
		t.Fatal("old extent not evicted")
	}
	if err := f.m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
