// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the simulated system. Each experiment prints the
// same rows/series the paper reports; EXPERIMENTS.md records the measured
// values against the paper's.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the workload a scaled synthetic stand-in); the reproduction target is the
// shape: who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/workload"
)

// Scale sizes an experiment run. The paper's setup (5M documents, 10k–100k
// queries, 20–200 MB caches) is scaled down proportionally so the full
// suite runs on a laptop in minutes; Small is for quick benches.
type Scale struct {
	// BaseDocs is the collection size standing in for the paper's 5M.
	BaseDocs int
	// Vocab is the vocabulary size.
	Vocab int
	// MaxDFShare shapes the largest inverted list.
	MaxDFShare float64
	// DistinctQueries sizes the query population.
	DistinctQueries int
	// WarmQueries precede measurement (steady state), MeasureQueries are
	// measured.
	WarmQueries    int
	MeasureQueries int
	// MemBytes is the reference memory cache size; SSD regions follow the
	// paper's ratios from it unless an experiment overrides them.
	MemBytes int64
	// SSDResultBytes and SSDListBytes are the reference L2 region sizes.
	SSDResultBytes int64
	SSDListBytes   int64
	// DocSteps is the number of x-axis points for document sweeps.
	DocSteps int
	// SizeSteps is the number of x-axis points for cache-size sweeps.
	SizeSteps int
	// Obs, when non-nil, is attached to every measured system so experiment
	// runs emit per-query traces (hybridbench -trace).
	// Attaching an observer forces serial execution (Jobs = 1): the tracer
	// assumes one query in flight at a time.
	Obs *obs.Observer
	// Profile, when non-nil, accumulates per-situation latency attribution
	// from every measured system (hybridbench -profile). Unlike Obs it does
	// not force serial execution: each point folds into a private profile
	// and merges commutative totals, so output is identical at any Jobs.
	// Only the measured window is profiled (warmup is excluded).
	Profile *obs.Profile
	// Jobs bounds how many sweep points run concurrently (hybridbench
	// -jobs). Values < 1 mean serial. Output is byte-identical for every
	// Jobs value: points are independent deterministic systems and rows
	// are assembled in point order.
	Jobs int
	// Codec selects the on-device posting-block encoding (hybridbench
	// -codec). Results are byte-identical across codecs; byte-denominated
	// stats (device bytes, cache occupancy) reflect the encoded size.
	Codec index.CodecID
}

// FullScale is the reference configuration: the regime of the paper's
// evaluation (capacity pressure on L1, SSD regions holding the hot set)
// scaled to laptop runtimes.
func FullScale() Scale {
	return Scale{
		BaseDocs:        2_000_000,
		Vocab:           5000,
		MaxDFShare:      0.2,
		DistinctQueries: 20000,
		WarmQueries:     4000,
		MeasureQueries:  4000,
		MemBytes:        3 << 20,
		SSDResultBytes:  2 << 20,
		SSDListBytes:    24 << 20,
		DocSteps:        5,
		SizeSteps:       5,
	}
}

// SmallScale is a fast variant for `go test -bench`.
func SmallScale() Scale {
	return Scale{
		BaseDocs:        600_000,
		Vocab:           2500,
		MaxDFShare:      0.2,
		DistinctQueries: 8000,
		WarmQueries:     1000,
		MeasureQueries:  1200,
		MemBytes:        1 << 20,
		SSDResultBytes:  1 << 20,
		SSDListBytes:    8 << 20,
		DocSteps:        3,
		SizeSteps:       3,
	}
}

// collection builds the experiment collection spec for numDocs documents.
func (sc Scale) collection(numDocs int) workload.CollectionSpec {
	spec := workload.DefaultCollection(numDocs)
	spec.VocabSize = sc.Vocab
	spec.MaxDFShare = sc.MaxDFShare
	return spec
}

// log builds the experiment query-log spec.
func (sc Scale) log() workload.QueryLogSpec {
	spec := workload.DefaultQueryLog(sc.Vocab)
	spec.DistinctQueries = sc.DistinctQueries
	return spec
}

// engineConfig returns the engine tuning used throughout the evaluation.
func (sc Scale) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.TerminationFrac = 0.35
	return cfg
}

// cacheConfig returns the reference cache configuration for the policy.
func (sc Scale) cacheConfig(policy core.Policy) core.Config {
	cfg := core.DefaultConfig(sc.MemBytes)
	cfg.Policy = policy
	cfg.TEV = 2
	cfg.SSDResultBytes = sc.SSDResultBytes
	cfg.SSDListBytes = sc.SSDListBytes
	return cfg
}

// config is the one system assembly of the evaluation: the collection at
// numDocs, the query log, the engine tuning, the codec and the PU model
// around the given cache. It is a pure value; a sweep sets its own delta
// (CacheFTL, CacheFaults, HeteroCacheTier, QueryLog.DistinctQueries) on
// the result, and build stamps the index image.
func (sc Scale) config(numDocs int, mode hybrid.CacheMode, indexOn hybrid.IndexPlacement, cache core.Config) hybrid.Config {
	return hybrid.Config{
		Collection: sc.collection(numDocs),
		QueryLog:   sc.log(),
		Cache:      cache,
		Mode:       mode,
		IndexOn:    indexOn,
		Codec:      sc.Codec,
		Engine:     sc.engineConfig(),
		UseModelPU: true,
	}
}

// stamp attaches the shared index image of cfg's collection and codec, so
// systems agreeing on (docs, vocab, seed, ...) synthesize the collection
// once.
func stamp(cfg hybrid.Config) (hybrid.Config, error) {
	img, err := sharedImage(cfg.Collection, cfg.Codec)
	cfg.IndexImage = img
	return cfg, err
}

// build assembles the system cfg describes over the shared index image.
func build(cfg hybrid.Config) (*hybrid.System, error) {
	cfg, err := stamp(cfg)
	if err != nil {
		return nil, err
	}
	return hybrid.New(cfg)
}

// observer returns the observer a measured system attaches, or nil. With
// sc.Obs it is a fork: every system's clock restarts at zero, so
// histograms and samples must be private while traces share one stream.
// With only sc.Profile it is a private span-less observer whose
// commutative profile totals are all that leave the point.
func (sc Scale) observer() *obs.Observer {
	switch {
	case sc.Obs != nil:
		return sc.Obs.Fork()
	case sc.Profile != nil:
		return obs.New(obs.Options{SpanLimit: -1})
	}
	return nil
}

// runMeasured warms the system, resets counters, and measures. CBSLRU
// systems are statically warmed from the query log first (§VI-C2).
func runMeasured(sys *hybrid.System, sc Scale) (hybrid.RunStats, core.Stats, error) {
	o := sc.observer()
	if o != nil {
		sys.EnableObservability(o)
	}
	if sys.Manager != nil && sys.Manager.UsesStaticPartition() {
		if _, err := sys.WarmupStatic(2 * sc.WarmQueries); err != nil {
			return hybrid.RunStats{}, core.Stats{}, err
		}
	}
	if _, err := sys.Run(sc.WarmQueries); err != nil {
		return hybrid.RunStats{}, core.Stats{}, err
	}
	if sys.Manager != nil {
		sys.Manager.ResetStats()
	}
	if o != nil {
		// Profile only the measured window, mirroring ResetStats.
		o.Profile().Reset()
	}
	rs, err := sys.Run(sc.MeasureQueries)
	if err != nil {
		return rs, core.Stats{}, err
	}
	if sc.Profile != nil && o != nil {
		sc.Profile.Merge(o.Profile())
	}
	var ms core.Stats
	if sys.Manager != nil {
		ms = sys.Manager.Stats()
	}
	return rs, ms, nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short handle ("fig14b", "table1", ...).
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment at the given scale and writes its
	// rows/series to w.
	Run func(w io.Writer, sc Scale) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Fig 1: I/O trace of search engines (read sequence vs logical sector)", Run: Fig01IOTrace},
		{ID: "iostats", Title: "§III: I/O pattern characteristics (read-dominant, locality, random, skipped)", Run: IOStats},
		{ID: "fig3", Title: "Fig 3: inverted list utilization rate and term access frequency distributions", Run: Fig03Distributions},
		{ID: "table1", Title: "Table I: retrieval situations S1..S9 with probabilities and time costs", Run: Table1Situations},
		{ID: "fig14a", Title: "Fig 14a: hit ratio of RC vs IC vs RIC over cache size", Run: Fig14aHitRatioComposition},
		{ID: "fig14b", Title: "Fig 14b: hit ratio of LRU vs CBLRU vs CBSLRU over cache size", Run: Fig14bHitRatioPolicies},
		{ID: "fig15", Title: "Fig 15: uncached search on HDD vs SSD over collection size", Run: Fig15NoCache},
		{ID: "fig16", Title: "Fig 16: one-level vs two-level cache performance", Run: Fig16OneVsTwoLevel},
		{ID: "fig17", Title: "Fig 17: LRU vs CBLRU vs CBSLRU response time and throughput", Run: Fig17PolicyPerformance},
		{ID: "fig18", Title: "Fig 18: cost-performance of memory/SSD capacity mixes", Run: Fig18CostPerformance},
		{ID: "fig19", Title: "Fig 19: block erasure count and flash average access time", Run: Fig19InsideSSD},
		{ID: "tables23", Title: "Tables II-III: environment and simulated-SSD settings", Run: Tables23Environment},
		{ID: "ablate", Title: "Ablations: block assembly, EV selection, PU prefix, window W, static share", Run: Ablations},
		{ID: "ftl", Title: "§II-A: cache workload across FTL families (page-map vs hybrid-log vs block-map)", Run: FTLComparison},
		{ID: "dynamic", Title: "§IV-B/§VIII: dynamic scenario — TTL on cached data (future work)", Run: DynamicScenario},
		{ID: "threelevel", Title: "§VIII/[19]: three-level caching — intersection cache on a conjunctive workload", Run: ThreeLevel},
		{ID: "faults", Title: "Fault injection: SSD op-error sweep — graceful degradation toward the HDD baseline", Run: Faults},
		{ID: "serving", Title: "Serving layer: shard count × offered load — throughput and p99/p999 under open-loop arrivals", Run: Serving},
		{ID: "zoo", Title: "Policy zoo: every registered policy × budget × workload, plus the heterogeneous cache tier", Run: Zoo},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// docSweep returns the collection sizes for document sweeps: steps evenly
// spaced over [BaseDocs/2, BaseDocs], the paper's 1..5 ×10^6 scaled. The
// sweep starts at half the base size so every point keeps the caches under
// genuine capacity pressure — the regime the paper evaluates; far smaller
// collections fit in memory outright and make any policy look alike.
func (sc Scale) docSweep() []int {
	steps := sc.DocSteps
	if steps < 2 {
		steps = 2
	}
	out := make([]int, steps)
	half := sc.BaseDocs / 2
	for i := range out {
		out[i] = half + half*(i+1)/steps
	}
	return out
}

// fmtQPS renders a throughput value.
func fmtQPS(v float64) string { return fmt.Sprintf("%.1f", v) }

// sortedKeys is a tiny helper for deterministic map iteration.
func sortedKeys[K ~int32 | ~uint64 | ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
