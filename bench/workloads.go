package main

import (
	"fmt"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/experiments"
	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

// workloadSpec declares one benchmark workload. Every workload has a query
// stream: a closed loop of one client over a two-level hybrid.System built
// on the experiments.SmallScale() collection (600 000 docs, vocab 2 500,
// MaxDFShare 0.2, TEV 2, TerminationFrac 0.35, model PU, index on HDD,
// page-map FTL); the fields below are its deltas from that scale. Counts
// are fixed, never time-based, so every simulated number repeats
// bit-for-bit for a seed; a run repeats identical rounds until it has
// measured for the requested seconds.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	// Policy and Codec are registry names (core.ParsePolicy,
	// index.ParseCodec).
	Policy string
	Codec  string
	// Distinct is the query population (QueryLogSpec.DistinctQueries).
	Distinct int
	// MemBytes is split 20/80 between results and lists as in
	// core.DefaultConfig; the SSD regions are set outright.
	MemBytes       int64
	SSDResultBytes int64
	SSDListBytes   int64
	// Warm queries run during set-up; Measure queries are the window of
	// one round.
	Warm    int
	Measure int

	// Experiments, when set, makes the round also regenerate these
	// experiment IDs (the basket) at SmallScale with ExpWarm/ExpMeasure
	// queries per sweep point, Jobs = 2, raw codec. SetupExperiments is
	// the smallest subset that builds every index image the basket needs,
	// run during set-up so the window performs zero index builds.
	Experiments      []string
	SetupExperiments []string
	ExpWarm          int
	ExpMeasure       int
}

// basketIDs is the fixed basket: the 16 experiments that existed at PR 2
// plus the serving sweep. Membership is frozen; zoo and faults stay out
// (40 % of suite time over the same code paths).
var basketIDs = []string{
	"fig1", "iostats", "fig3", "table1", "fig14a", "fig14b", "fig15", "fig16",
	"fig17", "fig18", "fig19", "tables23", "ablate", "ftl", "dynamic",
	"threelevel", "serving",
}

// workloads is the benchmark. Counts were calibrated once on the seed
// commit (go1.24, 2 cores) so that one round's window is 3–5 s, and are
// frozen: changing one starts a new baseline.
var workloads = []workloadSpec{
	{
		Name:   "ref_2lc",
		Why:    "paper's reference regime (Fig 17/19): CBLRU two-level, raw codec, working set about the cache budget; engine does ~90% of host work and every layer takes part",
		Policy: "cblru", Codec: "raw", Distinct: 8000,
		MemBytes: 1 << 20, SSDResultBytes: 1 << 20, SSDListBytes: 8 << 20,
		Warm: 4000, Measure: 8000,
	},
	{
		Name:   "hot_results",
		Why:    "working set fits the result caches (Table I R1/R2 only): GetResult, flash reads and DecodeResult do the work and Execute almost none, so an engine change must not move it",
		Policy: "cblru", Codec: "raw", Distinct: 2000,
		MemBytes: 4 << 20, SSDResultBytes: 64 << 20, SSDListBytes: 8 << 20,
		Warm: 50000, Measure: 600000,
	},
	{
		Name:   "churn_lru_gv",
		Why:    "working set exceeds the caches: LRU with entry-granular placement, gvarint decode, random flash page writes and GC copies; shows a gain bought for CBLRU/raw at their expense",
		Policy: "lru", Codec: "gvarint", Distinct: 32000,
		MemBytes: 1 << 20, SSDResultBytes: 512 << 10, SSDListBytes: 4 << 20,
		Warm: 4000, Measure: 6000,
	},
	{
		Name:   "basket",
		Why:    "the frozen basket of 16 paper experiments plus serving: the only workload running the sweep runner, serve.Pool, CBSLRU, one-level/no-cache, index-on-SSD, other FTLs, TTL and the conjunctive engine",
		Policy: "cblru", Codec: "raw", Distinct: 8000,
		MemBytes: 1 << 20, SSDResultBytes: 1 << 20, SSDListBytes: 8 << 20,
		Warm: 1000, Measure: 4000,
		Experiments:      basketIDs,
		SetupExperiments: []string{"fig1", "fig15"},
		ExpWarm:          80, ExpMeasure: 100,
	},
}

// workloadByName finds a declared workload.
func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled divides every count by div (at least 1 each); tests use it to run
// the real configurations at 1/100 size.
func (w workloadSpec) scaled(div int) workloadSpec {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, 1)
	}
	w.Warm, w.Measure = shrink(w.Warm), shrink(w.Measure)
	w.ExpWarm, w.ExpMeasure = shrink(w.ExpWarm), shrink(w.ExpMeasure)
	return w
}

// systemConfig assembles the stream's hybrid.Config the way
// experiments.Scale assembles a sweep point, with seed feeding the query
// log.
func (w workloadSpec) systemConfig(seed uint64) (hybrid.Config, error) {
	policy, err := core.ParsePolicy(w.Policy)
	if err != nil {
		return hybrid.Config{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	codec, err := index.ParseCodec(w.Codec)
	if err != nil {
		return hybrid.Config{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	sc := experiments.SmallScale()

	collection := workload.DefaultCollection(sc.BaseDocs)
	collection.VocabSize = sc.Vocab
	collection.MaxDFShare = sc.MaxDFShare

	qlog := workload.DefaultQueryLog(sc.Vocab)
	qlog.DistinctQueries = w.Distinct
	qlog.Seed = seed

	cache := core.DefaultConfig(w.MemBytes)
	cache.Policy = policy
	cache.TEV = 2
	cache.SSDResultBytes = w.SSDResultBytes
	cache.SSDListBytes = w.SSDListBytes

	eng := engine.DefaultConfig()
	eng.TerminationFrac = 0.35

	return hybrid.Config{
		Collection: collection,
		QueryLog:   qlog,
		Cache:      cache,
		Mode:       hybrid.CacheTwoLevel,
		IndexOn:    hybrid.IndexOnHDD,
		Codec:      codec,
		Engine:     eng,
		UseModelPU: true,
	}, nil
}

// basketScale is the Scale the basket's experiments run at.
func (w workloadSpec) basketScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.WarmQueries = w.ExpWarm
	sc.MeasureQueries = w.ExpMeasure
	sc.Jobs = 2
	sc.Codec = index.CodecRaw
	return sc
}
