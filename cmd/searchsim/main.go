// Command searchsim runs an end-to-end search engine simulation with the
// paper's two-level SSD cache and prints a full system report: hit ratios,
// Table I situations, device counters and SSD wear.
//
// Usage:
//
//	searchsim -queries 10000 -policy cbslru
//	searchsim -queries 5000 -policy lru -mode onelevel
//	searchsim -docs 2000000 -mem 3145728 -metrics-every 2000
//	searchsim -ftl blockmap -queries 3000         # §II-A FTL ablation
//	searchsim -result-ttl 30s -list-ttl 30s       # §IV-B dynamic scenario
//	searchsim -trace run.ndjson -metrics-every 1000  # per-query traces + live metrics
//	searchsim -json report.json                   # machine-readable final report
//	searchsim -serve -shards 4 -rate 200          # open-loop concurrent serving
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/metrics"
	"hybridstore/internal/obs"
	"hybridstore/internal/serve"
	"hybridstore/internal/workload"
)

func main() {
	var (
		queries      = flag.Int("queries", 10000, "queries to run")
		docs         = flag.Int("docs", 1_000_000, "collection size")
		vocab        = flag.Int("vocab", 5000, "vocabulary size")
		mem          = flag.Int64("mem", 3<<20, "memory cache bytes")
		ssdRC        = flag.Int64("ssd-rc", 2<<20, "SSD result-cache region bytes")
		ssdIC        = flag.Int64("ssd-ic", 24<<20, "SSD list-cache region bytes")
		policyFlag   = flag.String("policy", "cbslru", "cache policy: "+strings.Join(core.RegisteredPolicyNames(), ", "))
		modeFlag     = flag.String("mode", "twolevel", "cache mode: none, onelevel, twolevel")
		indexFlag    = flag.String("index-on", "hdd", "index placement: hdd or ssd")
		codecFlag    = flag.String("codec", "raw", "on-device posting codec: raw or gvarint")
		ftlFlag      = flag.String("ftl", "pagemap", "cache SSD FTL: page-map, block-map, hybrid-log (hyphen optional)")
		resultTTL    = flag.Duration("result-ttl", 0, "dynamic scenario: TTL for cached results (0 = static)")
		listTTL      = flag.Duration("list-ttl", 0, "dynamic scenario: TTL for cached lists (0 = static)")
		traceFile    = flag.String("trace", "", "write one NDJSON trace record per query to this file")
		metricsEvery = flag.Int("metrics-every", 0, "print a live metrics line every N queries (0 = off)")
		jsonFile     = flag.String("json", "", "write the machine-readable JSON report to this file ('-' = stdout)")
		profileFile  = flag.String("profile", "", "write the simulated-time latency profile as gzipped pprof to this file (plus folded stacks to <file>.folded)")

		serveMode = flag.Bool("serve", false, "concurrent serving mode: open-loop arrivals across -shards cache partitions with singleflight coalescing")
		shards    = flag.Int("shards", 2, "serve: number of cache shards (cache budgets are split across them)")
		rate      = flag.Float64("rate", 0, "serve: offered load in queries/simulated-second (0 = 1.5x the calibrated single-shard capacity)")
		serveWarm = flag.Int("serve-warm", 1000, "serve: closed-loop warm queries before the open-loop run")
	)
	flag.Parse()

	policy, err := core.ParsePolicy(*policyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mode, err := parseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	placement, err := parsePlacement(*indexFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	codec, err := index.ParseCodec(*codecFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ftl, err := flashsim.ParseFTL(*ftlFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	collection := workload.DefaultCollection(*docs)
	collection.VocabSize = *vocab
	collection.MaxDFShare = 0.2
	cacheCfg := core.DefaultConfig(*mem)
	cacheCfg.Policy = policy
	cacheCfg.TEV = 2
	cacheCfg.SSDResultBytes = *ssdRC
	cacheCfg.SSDListBytes = *ssdIC
	cacheCfg.ResultTTL = *resultTTL
	cacheCfg.ListTTL = *listTTL
	engCfg := engine.DefaultConfig()
	engCfg.TerminationFrac = 0.35

	baseCfg := hybrid.Config{
		Collection: collection,
		QueryLog:   workload.DefaultQueryLog(collection.VocabSize),
		Cache:      cacheCfg,
		Mode:       mode,
		IndexOn:    placement,
		Codec:      codec,
		Engine:     engCfg,
		UseModelPU: true,
		CacheFTL:   ftl,
	}

	if *serveMode {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if err := serveConflict(set); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runServe(baseCfg, serveOptions{
			queries:     *queries,
			shards:      *shards,
			rate:        *rate,
			warm:        *serveWarm,
			traceFile:   *traceFile,
			profileFile: *profileFile,
		})
		return
	}

	sys, err := hybrid.New(baseCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	obsOpts := obs.Options{}
	if *metricsEvery > 0 {
		obsOpts.SampleEvery = *metricsEvery
	}
	observer, closeTrace, err := obs.NewTraceFile(*traceFile, obsOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys.EnableObservability(observer)

	if sys.Manager != nil && sys.Manager.UsesStaticPartition() {
		ws, err := sys.WarmupStatic(*queries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("static warmup: pinned %d results, %d lists (from %d sampled queries)\n",
			ws.PinnedResults, ws.PinnedLists, ws.SampleQueries)
	}

	for done := 1; done <= *queries; done++ {
		if _, _, err := sys.Search(sys.Log.Next()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *metricsEvery > 0 && done%*metricsEvery == 0 {
			fmt.Println(observer.Latest().Line(observer.OverallLatency()))
		}
	}
	fmt.Println()
	fmt.Print(sys.Report())

	if err := closeTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *profileFile != "" {
		if err := observer.Profile().WriteFiles(*profileFile, *profileFile+".folded", "query"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote latency profile to %s (+ %s.folded)\n", *profileFile, *profileFile)
	}
	if *jsonFile != "" {
		out := os.Stdout
		if *jsonFile != "-" {
			f, err := os.Create(*jsonFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := sys.WriteJSONReport(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonFile != "-" {
			fmt.Printf("wrote JSON report to %s\n", *jsonFile)
		}
	}
}

// serveIgnored are the flags of the closed-loop run that the -serve pool
// has no counterpart for: it writes no JSON report and prints no live
// metrics.
var serveIgnored = []string{"json", "metrics-every"}

// serveConflict names the first flag in set that -serve cannot honour, so
// such a run is refused instead of silently dropping the flag.
func serveConflict(set map[string]bool) error {
	for _, name := range serveIgnored {
		if set[name] {
			return fmt.Errorf("-serve does not support -%s", name)
		}
	}
	return nil
}

// serveOptions carries the -serve flag set.
type serveOptions struct {
	queries     int
	shards      int
	rate        float64
	warm        int
	traceFile   string
	profileFile string
}

// runServe drives the concurrent serving layer: open-loop Poisson arrivals
// on a diurnal curve across opt.shards cache partitions, with
// identical in-flight queries coalesced singleflight-style. It prints the
// pool's throughput/tail-latency summary plus a per-shard breakdown.
func runServe(base hybrid.Config, opt serveOptions) {
	rate := opt.rate
	if rate <= 0 {
		mu, err := serve.CalibrateQPS(base, opt.warm, opt.queries)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rate = 1.5 * mu
		fmt.Printf("calibrated single-shard capacity mu=%.1f q/s; offering 1.5x = %.1f q/s\n", mu, rate)
	}
	observer, closeTrace, err := obs.NewTraceFile(opt.traceFile, obs.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pool, err := serve.New(serve.Config{
		Base:        base,
		Shards:      opt.shards,
		Rate:        rate,
		WarmQueries: opt.warm,
		Observer:    observer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pool.Warm(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r, err := pool.Run(opt.queries)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println(r.String())
	fmt.Printf("arrivals=%d executed=%d coalesced=%d horizon=%v makespan=%v backlog_drain=%v\n",
		r.Arrivals, r.Executed, r.Coalesced,
		r.Horizon.Round(time.Millisecond), r.Makespan.Round(time.Millisecond),
		(r.Makespan - r.Horizon).Round(time.Millisecond))
	fmt.Printf("latency: mean=%v p50=%v p99=%v p999=%v total_queue_wait=%v\n",
		metrics.USDuration(r.Latency.Mean), metrics.USDuration(r.Latency.P50),
		metrics.USDuration(r.Latency.P99), metrics.USDuration(r.Latency.P999),
		r.QueueWait.Round(time.Millisecond))
	for i := 0; i < pool.Shards(); i++ {
		sys := pool.System(i)
		if sys.Manager == nil {
			continue
		}
		st := sys.Manager.Stats()
		fmt.Printf("shard %d: queries=%d RC=%.3f IC=%.3f RIC=%.3f\n",
			i, st.Queries, st.ResultHitRatio(), st.ListHitRatio(), st.CombinedHitRatio())
	}

	if err := closeTrace(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if opt.profileFile != "" {
		prof := obs.NewProfile()
		pool.MergeProfile(prof)
		if err := prof.WriteFiles(opt.profileFile, opt.profileFile+".folded", "query"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote latency profile to %s (+ %s.folded)\n", opt.profileFile, opt.profileFile)
	}
}

func parseMode(s string) (hybrid.CacheMode, error) {
	switch strings.ToLower(s) {
	case "none":
		return hybrid.CacheNone, nil
	case "onelevel":
		return hybrid.CacheOneLevel, nil
	case "twolevel":
		return hybrid.CacheTwoLevel, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want none, onelevel, twolevel)", s)
	}
}

func parsePlacement(s string) (hybrid.IndexPlacement, error) {
	switch strings.ToLower(s) {
	case "hdd":
		return hybrid.IndexOnHDD, nil
	case "ssd":
		return hybrid.IndexOnSSD, nil
	default:
		return 0, fmt.Errorf("unknown index placement %q (want hdd, ssd)", s)
	}
}
