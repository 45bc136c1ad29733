package hybrid

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// smallConfig returns a fast, laptop-scale system for integration tests,
// shaped so the caches are under genuine capacity pressure (the regime the
// paper's policies are designed for): large hot lists relative to L1,
// SSD regions that hold the hot set.
func smallConfig(policy core.Policy, mode CacheMode) Config {
	collection := workload.DefaultCollection(1_000_000)
	collection.VocabSize = 3000
	collection.MaxDFShare = 0.2
	log := workload.DefaultQueryLog(collection.VocabSize)
	log.DistinctQueries = 10000

	// Capacities track the 6-byte posting encoding: the regime (capacity
	// pressure on L1, SSD holding the hot set) is what matters, so cache
	// budgets scale with the on-device list bytes.
	cacheCfg := core.DefaultConfig(9 << 17) // 1.125 MiB memory
	cacheCfg.Policy = policy
	cacheCfg.TEV = 2
	cacheCfg.SSDResultBytes = 2 << 20
	cacheCfg.SSDListBytes = 9 << 20

	engCfg := engine.DefaultConfig()
	engCfg.TerminationFrac = 0.35

	return Config{
		Collection: collection,
		QueryLog:   log,
		Cache:      cacheCfg,
		Mode:       mode,
		IndexOn:    IndexOnHDD,
		Engine:     engCfg,
		UseModelPU: true,
	}
}

func TestNewBuildsAllModes(t *testing.T) {
	for _, mode := range []CacheMode{CacheNone, CacheOneLevel, CacheTwoLevel} {
		sys, err := New(smallConfig(core.PolicyCBLRU, mode))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if mode == CacheTwoLevel && sys.CacheSSD == nil {
			t.Fatal("two-level system lacks cache SSD")
		}
		if mode != CacheTwoLevel && sys.CacheSSD != nil {
			t.Fatal("unexpected cache SSD")
		}
		if mode == CacheNone && sys.Manager != nil {
			t.Fatal("uncached system has a manager")
		}
		if _, _, err := sys.SearchNext(); err != nil {
			t.Fatalf("mode %d: search: %v", mode, err)
		}
	}
}

func TestIndexOnSSD(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheOneLevel)
	cfg.IndexOn = IndexOnSSD
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.IndexSSD == nil || sys.HDD != nil {
		t.Fatal("index device wrong")
	}
	if _, _, err := sys.SearchNext(); err != nil {
		t.Fatal(err)
	}
	if sys.IndexSSD.Stats().Reads == 0 {
		t.Fatal("no reads hit the index SSD")
	}
}

func TestSearchDeterministic(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ra, ia, ea := a.SearchNext()
		rb, ib, eb := b.SearchNext()
		if (ea == nil) != (eb == nil) {
			t.Fatalf("query %d: error divergence %v vs %v", i, ea, eb)
		}
		if ia.Elapsed != ib.Elapsed || ia.Cached != ib.Cached {
			t.Fatalf("query %d: info divergence %+v vs %+v", i, ia, ib)
		}
		if len(ra.Docs) != len(rb.Docs) {
			t.Fatalf("query %d: result divergence", i)
		}
		for j := range ra.Docs {
			if ra.Docs[j] != rb.Docs[j] {
				t.Fatalf("query %d doc %d: %v vs %v", i, j, ra.Docs[j], rb.Docs[j])
			}
		}
	}
}

func TestCachedResultMatchesComputed(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	q := sys.Log.QueryByID(3)
	first, info1, err := sys.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Cached {
		t.Fatal("first search reported cached")
	}
	second, info2, err := sys.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatal("repeat search not cached")
	}
	if len(first.Docs) != len(second.Docs) {
		t.Fatalf("cached result truncated: %d vs %d", len(second.Docs), len(first.Docs))
	}
	for i := range first.Docs {
		if first.Docs[i].Doc != second.Docs[i].Doc {
			t.Fatalf("cached result differs at rank %d", i)
		}
	}
}

func TestHitRatioGrowsWithRepetition(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.Run(1500)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Manager.Stats()
	if st.ResultHitRatio() < 0.15 {
		t.Fatalf("RC hit ratio %.3f too low for a Zipf query stream", st.ResultHitRatio())
	}
	if st.ListHitRatio() <= 0 {
		t.Fatal("IC never hit")
	}
	if rs.Queries != 1500 || rs.MeanResponseTime() <= 0 || rs.Throughput() <= 0 {
		t.Fatalf("run stats: %+v", rs)
	}
}

func TestSituationsPopulated(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(800); err != nil {
		t.Fatal(err)
	}
	tally := sys.Manager.Stats().Situations
	if tally.Total() != 800 {
		t.Fatalf("tally total = %d", tally.Total())
	}
	if tally.Counts[core.S1ResultMem] == 0 {
		t.Fatal("no S1 (memory result hits) in a repetitive stream")
	}
	if tally.Counts[core.S9ListsHDD] == 0 {
		t.Fatal("no S9 (pure HDD) queries — cold misses must exist")
	}
}

func TestCBLRUBeatsLRUHitRatio(t *testing.T) {
	// The paper's headline (Fig 14b): CBLRU achieves a higher hit ratio
	// than LRU at equal capacity, because it caches used prefixes and
	// evicts by efficiency value.
	run := func(policy core.Policy) core.Stats {
		sys, err := New(smallConfig(policy, CacheTwoLevel))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(2000); err != nil {
			t.Fatal(err)
		}
		return sys.Manager.Stats()
	}
	lru := run(core.PolicyLRU)
	cblru := run(core.PolicyCBLRU)
	if cblru.CombinedHitRatio() <= lru.CombinedHitRatio() {
		t.Fatalf("CBLRU RIC %.4f not above LRU RIC %.4f",
			cblru.CombinedHitRatio(), lru.CombinedHitRatio())
	}
}

func TestCBLRUFasterThanLRU(t *testing.T) {
	// Fig 17: lower mean response time under CBLRU. Measured warm, as the
	// paper's steady-state curves are: the cost-based policies pay their
	// flush traffic up front and win on the recurring workload.
	run := func(policy core.Policy) time.Duration {
		sys, err := New(smallConfig(policy, CacheTwoLevel))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(2000); err != nil {
			t.Fatal(err)
		}
		rs, err := sys.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return rs.MeanResponseTime()
	}
	lru := run(core.PolicyLRU)
	cblru := run(core.PolicyCBLRU)
	if cblru >= lru {
		t.Fatalf("CBLRU response %v not below LRU %v", cblru, lru)
	}
}

func TestCBLRUFewerErasesThanLRU(t *testing.T) {
	// Fig 19a: block-aligned log writes erase less than small random
	// writes at equal workload.
	run := func(policy core.Policy) int64 {
		sys, err := New(smallConfig(policy, CacheTwoLevel))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(2500); err != nil {
			t.Fatal(err)
		}
		return sys.CacheSSD.Wear().TotalErases
	}
	lru := run(core.PolicyLRU)
	cblru := run(core.PolicyCBLRU)
	if cblru > lru {
		t.Fatalf("CBLRU erases %d above LRU erases %d", cblru, lru)
	}
}

func TestWarmupStaticPinsAndHelps(t *testing.T) {
	cfg := smallConfig(core.PolicyCBSLRU, CacheTwoLevel)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sys.WarmupStatic(3000)
	if err != nil {
		t.Fatal(err)
	}
	if ws.PinnedResults == 0 || ws.PinnedLists == 0 {
		t.Fatalf("warmup pinned nothing: %+v", ws)
	}
	sys.Manager.ResetStats()
	if _, err := sys.Run(1000); err != nil {
		t.Fatal(err)
	}
	st := sys.Manager.Stats()
	if st.ResultHitsSSD == 0 && st.ListBytesFromSSD == 0 {
		t.Fatal("static partition never served anything")
	}
}

func TestWarmupNoopForOtherPolicies(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sys.WarmupStatic(1000)
	if err != nil {
		t.Fatal(err)
	}
	if ws.PinnedResults != 0 || ws.PinnedLists != 0 {
		t.Fatalf("warmup pinned under CBLRU: %+v", ws)
	}
}

func TestReportRenders(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(100); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	for _, want := range []string{"policy=CBLRU", "hit ratios", "hdd:", "cache-ssd"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCacheHierarchyPreservesRankings(t *testing.T) {
	// The cache hierarchy must be semantically transparent: for every
	// query, executing through the manager yields exactly the ranking the
	// uncached engine computes on the raw index. Run enough queries that
	// every cache transition (fill, evict, SSD reload, partial hit) is
	// exercised.
	for _, policy := range []core.Policy{core.PolicyLRU, core.PolicyCBLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := smallConfig(policy, CacheTwoLevel)
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engCfg := engine.DefaultConfig()
			engCfg.TerminationFrac = cfg.Engine.TerminationFrac
			raw := engine.New(sys.Index, engCfg)
			for i := 0; i < 300; i++ {
				q := sys.Log.Next()
				got, _, err := sys.Engine.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := raw.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Docs) != len(want.Docs) {
					t.Fatalf("query %d: %d vs %d docs", q.ID, len(got.Docs), len(want.Docs))
				}
				for j := range got.Docs {
					if got.Docs[j] != want.Docs[j] {
						t.Fatalf("query %d rank %d: %+v vs %+v",
							q.ID, j, got.Docs[j], want.Docs[j])
					}
				}
			}
		})
	}
}

// TestResultsIdenticalAcrossCodecs is the tentpole divergence test: every
// cache mode must return the same ranked results whether the on-device
// index is raw or group-varint compressed. The gvarint runs exercise the
// compressed read path through every tier (memory hit, SSD reload, HDD
// miss) while the raw runs are the reference.
func TestResultsIdenticalAcrossCodecs(t *testing.T) {
	for _, mode := range []CacheMode{CacheNone, CacheOneLevel, CacheTwoLevel} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(codec index.CodecID) ([]*engine.Result, int64) {
				cfg := smallConfig(core.PolicyCBLRU, mode)
				cfg.Codec = codec
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]*engine.Result, 0, 400)
				for i := 0; i < 400; i++ {
					res, _, err := sys.SearchNext()
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, res)
				}
				return out, sys.Index.Bytes()
			}
			rawRes, rawBytes := run(index.CodecRaw)
			gvRes, gvBytes := run(index.CodecGVarint)
			if gvBytes >= rawBytes {
				t.Fatalf("gvarint index %d bytes, raw %d: no on-device savings", gvBytes, rawBytes)
			}
			for i := range rawRes {
				a, b := rawRes[i], gvRes[i]
				if a.QueryID != b.QueryID || len(a.Docs) != len(b.Docs) {
					t.Fatalf("query %d: shape diverges across codecs", i)
				}
				for j := range a.Docs {
					if a.Docs[j] != b.Docs[j] {
						t.Fatalf("query %d rank %d: %+v (raw) vs %+v (gvarint)",
							i, j, a.Docs[j], b.Docs[j])
					}
				}
			}
		})
	}
}

func TestCacheFTLVariantsRun(t *testing.T) {
	for _, ftl := range []FTLKind{FTLPageMap, FTLBlockMap, FTLHybridLog} {
		cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
		cfg.CacheFTL = ftl
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", ftl, err)
		}
		if _, err := sys.Run(150); err != nil {
			t.Fatalf("%v: %v", ftl, err)
		}
		if sys.CacheSSD.Stats().Writes == 0 {
			t.Fatalf("%v: cache SSD never written", ftl)
		}
	}
	// Unknown FTL is rejected.
	bad := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	bad.CacheFTL = FTLKind(42)
	if _, err := New(bad); err == nil {
		t.Fatal("unknown FTL accepted")
	}
}

func TestFTLKindString(t *testing.T) {
	for ftl, want := range map[FTLKind]string{
		FTLPageMap: "page-map", FTLBlockMap: "block-map", FTLHybridLog: "hybrid-log",
	} {
		if got := ftl.String(); got != want {
			t.Fatalf("%d.String() = %q", ftl, got)
		}
	}
	if FTLKind(9).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestTTLPlumbedThroughFacade(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.Cache.ResultTTL = time.Millisecond // everything expires immediately
	cfg.Cache.ListTTL = time.Millisecond
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400); err != nil {
		t.Fatal(err)
	}
	st := sys.Manager.Stats()
	if st.ResultsExpired == 0 && st.ListsExpired == 0 {
		t.Fatal("aggressive TTLs expired nothing")
	}
	if st.ResultHitRatio() > 0.05 {
		t.Fatalf("RC hit ratio %.3f despite 1ms TTL", st.ResultHitRatio())
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	bad.Collection.NumDocs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero-doc collection accepted")
	}
	bad2 := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	bad2.QueryLog.VocabSize = 0
	if _, err := New(bad2); err == nil {
		t.Fatal("bad query log accepted")
	}
	bad3 := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	bad3.IndexOn = IndexPlacement(9)
	if _, err := New(bad3); err == nil {
		t.Fatal("bad placement accepted")
	}
	bad4 := smallConfig(core.Policy(42), CacheTwoLevel)
	if _, err := New(bad4); err == nil {
		t.Fatal("unknown policy accepted")
	}
	// Two-level-only policies must be rejected without an SSD level — the
	// validation the searchsim CLI used to carry.
	for _, p := range []core.Policy{core.PolicyCBSLRU} {
		bad5 := smallConfig(p, CacheOneLevel)
		if _, err := New(bad5); err == nil {
			t.Fatalf("%v accepted without a two-level cache", p)
		}
	}
	// The heterogeneous tier is deleted: the field that selected it is
	// refused even on a config it used to accept.
	bad6 := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	bad6.HeteroCacheTier = true
	if _, err := New(bad6); err == nil || !strings.Contains(err.Error(), "DESIGN.md §7") {
		t.Fatalf("hetero tier on a two-level page-mapped config: %v, want a refusal pointing to DESIGN.md §7", err)
	}
	// Faults need a cache SSD to inject into; without one they would
	// silently inject nothing.
	bad7 := smallConfig(core.PolicyCBLRU, CacheOneLevel)
	bad7.CacheFaults = storage.FaultSpec{Write: 0.01}
	if _, err := New(bad7); err == nil {
		t.Fatal("cache faults accepted on a one-level cache")
	}
}

// TestSteadyStateAllocationBudget bounds what a query allocates on the host
// once the caches are warm, under both layouts. A cache miss fills L1 from
// recycled prefix buffers, pads SSD extents in one staging buffer, programs
// flash into recycled block buffers and encodes its result into the System's
// scratch for a recycled entry buffer of the cache, so what is left is the
// per-query result and a few small records — not a fresh copy of every list
// prefix, flash block and result entry a miss passes through.
func TestSteadyStateAllocationBudget(t *testing.T) {
	for _, p := range []core.Policy{core.PolicyCBLRU, core.PolicyLRU, core.PolicyCBSLRU} {
		t.Run(p.String(), func(t *testing.T) {
			checkAllocationBudget(t, smallConfig(p, CacheTwoLevel), 3000, 2000, 4<<10)
		})
	}
}

// TestResultHitAllocationBudget is the hit path's budget, on a system shaped
// like the benchmark's hot_results: every query's entry fits the result
// caches, four hits in five are read from flash and promoted into the buffer
// of the entry they evict, and what a query allocates is its decoded result.
func TestResultHitAllocationBudget(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.QueryLog.DistinctQueries = 2000
	cache := core.DefaultConfig(4 << 20)
	cache.Policy, cache.TEV = cfg.Cache.Policy, cfg.Cache.TEV
	cache.SSDResultBytes, cache.SSDListBytes = 64<<20, cfg.Cache.SSDListBytes
	cfg.Cache = cache
	sys := checkAllocationBudget(t, cfg, 20000, 5000, 2<<10)
	if st := sys.Manager.Stats(); st.ResultHitsSSD < st.ResultHitsMem || st.ResultMisses > 2100 {
		t.Fatalf("%d SSD hits, %d memory hits, %d misses: not the hot_results regime",
			st.ResultHitsSSD, st.ResultHitsMem, st.ResultMisses)
	}
}

// checkAllocationBudget builds cfg's system, warms it and fails the test if
// the measured queries allocate more than budget bytes each.
func checkAllocationBudget(t *testing.T, cfg Config, warmup, measured int, budget uint64) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := sys.SearchNext(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(measured)
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / uint64(measured)
	t.Logf("%d B and %d allocations per query", perQuery, (after.Mallocs-before.Mallocs)/uint64(measured))
	if perQuery > budget {
		t.Fatalf("steady state allocates %d B per query, budget %d B", perQuery, budget)
	}
	return sys
}

// TestShorterResultLeavesNoBytesOfALongerOne: results are encoded into one
// scratch the System reuses, so a short result computed after a full one must
// still reach the cache SSD as exactly its encoding padded with zeros.
func TestShorterResultLeavesNoBytesOfALongerOne(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.Collection = workload.DefaultCollection(30000) // small, so rare terms match a handful of documents
	cfg.Collection.VocabSize = 3000
	cfg.Cache.MemResultBytes = 2 * cfg.Cache.ResultEntryBytes
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topK := sys.Engine.Config().TopK
	common, rare := workload.TermID(-1), workload.TermID(-1)
	for term := workload.TermID(0); int(term) < cfg.Collection.VocabSize; term++ {
		switch df := sys.Index.TermDF(term); {
		case common < 0 && df >= int64(4*topK):
			common = term
		case rare < 0 && df >= 1 && df <= 10:
			rare = term
		}
	}
	if common < 0 || rare < 0 {
		t.Fatalf("collection has no term for a full result (%d) or for a short one (%d)", common, rare)
	}
	const longID, shortID = 900001, 900002
	long, _, err := sys.Search(workload.Query{ID: longID, Terms: []workload.TermID{common}})
	if err != nil {
		t.Fatal(err)
	}
	short, _, err := sys.Search(workload.Query{ID: shortID, Terms: []workload.TermID{rare}})
	if err != nil {
		t.Fatal(err)
	}
	if len(long.Docs) != topK || len(short.Docs) == 0 || len(short.Docs) >= topK {
		t.Fatalf("results of %d and %d documents, want %d and fewer", len(long.Docs), len(short.Docs), topK)
	}
	// The slot of the short result in the SSD result region, or nil.
	entry := make([]byte, cfg.Cache.ResultEntryBytes)
	onSSD := func() []byte {
		for off := int64(0); off+int64(len(entry)) <= cfg.Cache.SSDResultBytes; off += int64(len(entry)) {
			if off%cfg.Cache.BlockBytes+int64(len(entry)) > cfg.Cache.BlockBytes {
				off = (off/cfg.Cache.BlockBytes+1)*cfg.Cache.BlockBytes - int64(len(entry))
				continue // slots do not straddle blocks
			}
			if _, err := sys.CacheSSD.ReadAt(entry, off); err != nil {
				t.Fatal(err)
			}
			if res, err := engine.DecodeResult(entry); err == nil && res.QueryID == shortID {
				return entry
			}
		}
		return nil
	}
	// Push both out of L1 and through the write buffer onto the SSD: search
	// until an RB flush has put the short result's slot there.
	for i, flushes := 0, int64(0); ; i++ {
		if n := sys.Manager.Stats().RBFlushes; n > flushes {
			if flushes = n; onSSD() != nil {
				break
			}
		}
		if i == 400 {
			t.Fatal("the short result's entry was not found in the SSD result region")
		}
		if _, _, err := sys.Search(workload.Query{ID: uint64(910000 + i), Terms: []workload.TermID{rare}}); err != nil {
			t.Fatal(err)
		}
	}

	res, err := engine.DecodeResult(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Docs, short.Docs) {
		t.Fatal("the slot on the SSD decodes to other documents than the query returned")
	}
	// Byte for byte: a stale record of the long result would sit inside
	// the short one's docBytes-per-document span, where decoding never
	// looks.
	enc := short.Encode(sys.Engine.Config().DocResultBytes)
	want := append(enc, make([]byte, len(entry)-len(enc))...)
	for i := range entry {
		if entry[i] != want[i] {
			t.Fatalf("slot byte %d is %#x, want %#x: not the short result's encoding padded with zeros", i, entry[i], want[i])
		}
	}
}

// TestNewRefusesResultEntryThatCannotFit: a full result of TopK documents
// must encode within the cache's fixed entry size, or its first result hit
// would decode a cut entry. 60 × 400 + 16 = 24 016 B does not fit the default
// 20 KiB entry; 51 × 400 + 16 = 20 416 B does, and then every hit decodes.
func TestNewRefusesResultEntryThatCannotFit(t *testing.T) {
	for _, mode := range []CacheMode{CacheOneLevel, CacheTwoLevel} {
		cfg := smallConfig(core.PolicyCBLRU, mode)
		cfg.Engine.TopK = 60
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "24016") {
			t.Fatalf("mode %d: TopK 60 in a 20 KiB entry: %v", mode, err)
		}
	}
	cfg := smallConfig(core.PolicyCBLRU, CacheNone) // no entries to fit
	cfg.Engine.TopK = 60
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}

	cfg = smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.Engine.TopK = 51
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 3000; i++ {
		res, info, err := sys.SearchNext()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if info.Cached {
			hits++
			if len(res.Docs) == 0 || len(res.Docs) > 51 {
				t.Fatalf("query %d: hit decoded to %d docs", i, len(res.Docs))
			}
		}
	}
	if hits == 0 {
		t.Fatal("no result hit in 3000 queries")
	}
}

// TestNewRefusesBlockBytesOffTheEraseBlock: the manager's placement unit and
// the cache SSD's erase block are one number, whichever side it is set on.
func TestNewRefusesBlockBytesOffTheEraseBlock(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.Collection.NumDocs = 50_000
	cfg.Cache.BlockBytes = 64 << 10
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "65536") || !strings.Contains(err.Error(), "131072") {
		t.Fatalf("64 KiB BlockBytes on a 128 KiB erase block: %v", err)
	}
	cfg.Cache.BlockBytes = 0 // the default is the device's block
	if _, err := New(cfg); err != nil {
		t.Fatalf("default BlockBytes refused: %v", err)
	}
}

// TestCacheSSDSize pins the cache drive's size, spare area included, as
// literal numbers: the spare is over-provisioning the wear counts depend on.
func TestCacheSSDSize(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.Collection.NumDocs = 50_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = 13_631_488 // 2 MiB results + 9 MiB lists + 2 MiB spare
	if got := sys.CacheSSD.Size(); got != want {
		t.Fatalf("cache SSD holds %d bytes, want %d", got, want)
	}
}

// TestSystemsShareOneIndexImage runs two cached systems built from one
// IndexImage on two goroutines (their HDDs read through the image's bytes;
// run under -race) and requires each to return what an uncached system over
// the same image returns.
func TestSystemsShareOneIndexImage(t *testing.T) {
	const queries = 250
	base := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	base.Collection.NumDocs = 200_000
	img, err := index.BuildImage(base.Collection, base.Codec)
	if err != nil {
		t.Fatal(err)
	}
	base.IndexImage = img
	run := func(policy core.Policy, mode CacheMode) ([]*engine.Result, error) {
		cfg := base
		cfg.Cache.Policy, cfg.Mode = policy, mode
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		out := make([]*engine.Result, queries)
		for i := range out {
			if out[i], _, err = sys.SearchNext(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	policies := []core.Policy{core.PolicyCBLRU, core.PolicyLRU}
	got := make([][]*engine.Result, len(policies))
	var wg sync.WaitGroup
	for i, p := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = run(p, CacheTwoLevel); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		}()
	}
	want, err := run(core.PolicyCBLRU, CacheNone)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	for i, p := range policies {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s system sharing the image diverges from the uncached system", p)
		}
	}
}
