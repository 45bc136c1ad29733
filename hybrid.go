// Package hybrid is the public facade of the reproduction of "An Efficient
// SSD-based Hybrid Storage Architecture for Large-scale Search Engines"
// (Li et al., ICPP 2012).
//
// It assembles the full simulated system of the paper's Fig 2 — query
// engine, two-level cache manager (memory L1, SSD L2), SSD and HDD device
// models, synthetic collection and query log — behind one Config/System
// pair:
//
//	sys, err := hybrid.New(hybrid.DefaultConfig())
//	...
//	for i := 0; i < 10000; i++ {
//	    res, info, err := sys.SearchNext()
//	    ...
//	}
//	fmt.Println(sys.Report())
//
// Everything is deterministic: the same Config replays the same queries
// over the same index with the same simulated timings.
package hybrid

import (
	"fmt"
	"strings"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// IndexPlacement says which device stores the index files (Table I's
// "HDD"/"SSD" index storage variants of Figs 15 and 18).
type IndexPlacement int

// Index placement options.
const (
	IndexOnHDD IndexPlacement = iota
	IndexOnSSD
)

// String names the placement.
func (p IndexPlacement) String() string {
	switch p {
	case IndexOnHDD:
		return "hdd"
	case IndexOnSSD:
		return "ssd"
	default:
		return fmt.Sprintf("IndexPlacement(%d)", int(p))
	}
}

// FTLKind selects the flash translation layer of the cache SSD (§II-A).
// The list of FTLs, their names and constructors live in flashsim.
type FTLKind = flashsim.FTLKind

// FTL choices for the cache SSD. The paper baselines on the ideal
// page-mapped FTL; the block-mapped and hybrid log-block alternatives it
// surveys are available for ablation.
const (
	FTLPageMap   = flashsim.FTLPageMap
	FTLBlockMap  = flashsim.FTLBlockMap
	FTLHybridLog = flashsim.FTLHybridLog
)

// CacheMode selects the hierarchy depth.
type CacheMode int

// Cache modes: none (Fig 15), one-level = memory only ("1LC"), two-level =
// memory + SSD ("2LC").
const (
	CacheNone CacheMode = iota
	CacheOneLevel
	CacheTwoLevel
)

// String names the cache mode.
func (m CacheMode) String() string {
	switch m {
	case CacheNone:
		return "none"
	case CacheOneLevel:
		return "onelevel"
	case CacheTwoLevel:
		return "twolevel"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// Config assembles a full simulated system.
type Config struct {
	// Collection describes the synthetic document collection.
	Collection workload.CollectionSpec
	// QueryLog describes the synthetic query stream.
	QueryLog workload.QueryLogSpec
	// Cache configures the cache manager (policy, capacities). The SSD
	// regions are ignored unless Mode is CacheTwoLevel.
	Cache core.Config
	// Mode selects no cache, memory-only, or memory+SSD.
	Mode CacheMode
	// IndexOn places the index files on HDD (default) or SSD.
	IndexOn IndexPlacement
	// Codec selects the posting-block encoding of the on-device index
	// (default: index.CodecRaw). index.CodecGVarint stores compressed
	// lists; every cache tier and stat then accounts the compressed bytes.
	Codec index.CodecID
	// Engine tunes query processing (top-K, early termination).
	Engine engine.Config
	// UseModelPU, when true, supplies the analytic utilization model of
	// Fig 3(a) as the PU source (the paper assumes PU "already known by
	// analyzing the query log"). When false PU is measured online.
	UseModelPU bool
	// CacheFTL selects the cache SSD's flash translation layer
	// (default: the paper's ideal page-mapped baseline).
	CacheFTL FTLKind
	// CacheFaults injects deterministic device faults into the cache SSD:
	// per-operation error probabilities and sticky bad extents (see
	// storage.FaultSpec). The zero value injects nothing;
	// Validate refuses any other value unless Mode == CacheTwoLevel.
	CacheFaults storage.FaultSpec
	// HeteroCacheTier has no legal value but false: Validate refuses true.
	// The heterogeneous two-drive cache tier it once selected was deleted
	// (DESIGN.md §7); the field stays only because the frozen bench module
	// reads it, and goes with the change that unfreezes bench/ (ROADMAP
	// item 4).
	HeteroCacheTier bool
	// IndexImage, when non-nil, supplies a prebuilt serialized index for
	// Collection: New stamps it onto the index device instead of
	// re-synthesizing postings, which skips the CPU-heavy part of setup
	// when many systems share one collection. The image's spec must equal
	// Collection and its codec must equal Codec. Stamping charges the same
	// simulated device writes a direct build would, so the resulting
	// system is indistinguishable. An index on the HDD reads through the
	// image's bytes instead of copying them (later writes go to a private
	// overlay), so systems sharing an image hold the index once.
	IndexImage *index.Image
}

// DefaultConfig returns a laptop-scale rendition of the paper's evaluation
// setup (Table II): 1M documents standing in for 5M, AOL-like query log,
// CBLRU two-level cache with the 20/80 memory split and 10×/100× SSD
// regions.
func DefaultConfig() Config {
	collection := workload.DefaultCollection(1_000_000)
	return Config{
		Collection: collection,
		QueryLog:   workload.DefaultQueryLog(collection.VocabSize),
		Cache:      core.DefaultConfig(8 << 20),
		Mode:       CacheTwoLevel,
		IndexOn:    IndexOnHDD,
		Engine:     engine.DefaultConfig(),
		UseModelPU: true,
	}
}

// CacheDevice is the surface of the cache SSD: one drive (*flashsim.SSD,
// whatever its FTL).
type CacheDevice interface {
	storage.Device
	storage.Trimmer
	Wear() flashsim.WearStats
	Stats() storage.DeviceStats
	PageSize() int
	BlockSize() int64
}

// System is an assembled simulation: devices, index, caches, engine, log.
type System struct {
	Clock    *simclock.Clock
	HDD      *disksim.HDD  // nil when the index lives on SSD
	IndexSSD *flashsim.SSD // nil when the index lives on HDD
	CacheSSD CacheDevice   // nil unless Mode == CacheTwoLevel
	// CacheFaults is the fault injector wrapping CacheSSD; nil unless
	// Config.CacheFaults enables injection. The manager performs all cache
	// I/O through it, while CacheSSD stays directly reachable for wear and
	// device counters.
	CacheFaults *storage.FaultyDevice
	Index       *index.Index
	Manager     *core.Manager // nil when Mode == CacheNone
	Engine      *engine.Engine
	Log         *workload.QueryLog

	cfg      Config
	engCfg   engine.Config
	docBytes int
	// entry is the scratch results are encoded into, of the manager's fixed
	// entry size (New checked that TopK documents of docBytes fit; PutResult
	// copies it). Everything from entryDirty on is zero: padding stays zero.
	entry      []byte
	entryDirty int
	obs        *obs.Observer // nil unless EnableObservability was called
}

// Validate reports configuration errors a System cannot be built from:
// unknown enum values, pairings that would silently misconfigure (a
// static-partition policy without an SSD level, cache faults without a
// cache SSD to inject them into) and the deleted heterogeneous tier. New
// calls it first, so CLIs and library users get identical rejections.
func (c Config) Validate() error {
	switch c.Mode {
	case CacheNone, CacheOneLevel, CacheTwoLevel:
	default:
		return fmt.Errorf("hybrid: unknown cache mode %d", c.Mode)
	}
	switch c.IndexOn {
	case IndexOnHDD, IndexOnSSD:
	default:
		return fmt.Errorf("hybrid: unknown index placement %d", c.IndexOn)
	}
	if !c.CacheFTL.Valid() {
		return fmt.Errorf("hybrid: unknown cache FTL %d", c.CacheFTL)
	}
	if c.Mode != CacheNone {
		if !c.Cache.Policy.Valid() {
			return fmt.Errorf("hybrid: unknown cache policy %d (want %s)",
				c.Cache.Policy, strings.Join(core.RegisteredPolicyNames(), ", "))
		}
		if c.Cache.Policy.RequiresTwoLevel() && c.Mode != CacheTwoLevel {
			return fmt.Errorf("hybrid: policy %s requires a two-level cache (Mode = CacheTwoLevel)",
				c.Cache.Policy)
		}
	}
	if c.CacheFaults.Enabled() && c.Mode != CacheTwoLevel {
		return fmt.Errorf("hybrid: CacheFaults requires Mode = CacheTwoLevel (there is no cache SSD to inject into)")
	}
	if c.HeteroCacheTier {
		return fmt.Errorf("hybrid: HeteroCacheTier is no longer supported: the heterogeneous cache tier was deleted (DESIGN.md §7)")
	}
	return nil
}

// New builds the system: devices sized to the index, the index bulk-loaded
// onto its device, cache manager and engine wired to the shared clock.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Collection.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.QueryLog.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueryLog.VocabSize > cfg.Collection.VocabSize {
		return nil, fmt.Errorf("hybrid: query log vocabulary (%d) exceeds collection vocabulary (%d)",
			cfg.QueryLog.VocabSize, cfg.Collection.VocabSize)
	}
	clock := simclock.New()
	s := &System{Clock: clock, cfg: cfg}

	// Serialize the index (or adopt the prebuilt image) first: devices are
	// sized to the encoded bytes, so a compressed codec buys a smaller
	// simulated device, not dead space.
	img := cfg.IndexImage
	if img != nil {
		if img.Spec() != cfg.Collection {
			return nil, fmt.Errorf("hybrid: index image built for %+v, config wants %+v",
				img.Spec(), cfg.Collection)
		}
		if img.Codec() != cfg.Codec {
			return nil, fmt.Errorf("hybrid: index image encoded with codec %s, config wants %s",
				img.Codec(), cfg.Codec)
		}
	} else {
		var err error
		img, err = index.BuildImage(cfg.Collection, cfg.Codec)
		if err != nil {
			return nil, err
		}
	}

	ixBytes := img.Bytes()
	var ixDev storage.Device
	switch cfg.IndexOn {
	case IndexOnHDD:
		s.HDD = disksim.New("hdd", clock, disksim.DefaultParams(ixBytes+(1<<20)))
		ixDev = s.HDD
	case IndexOnSSD:
		s.IndexSSD = flashsim.New("index-ssd", clock, flashsim.DefaultParams(ixBytes+(1<<20)))
		ixDev = s.IndexSSD
	}
	ix, err := img.Stamp(ixDev)
	if err != nil {
		return nil, err
	}
	s.Index = ix

	engCfg := cfg.Engine
	engCfg.Clock = clock
	s.docBytes = engCfg.DocResultBytes
	if s.docBytes <= 0 {
		s.docBytes = 400
	}

	if cfg.Mode != CacheNone {
		cacheCfg := cfg.Cache
		if cfg.Mode == CacheOneLevel {
			cacheCfg.SSDResultBytes, cacheCfg.SSDListBytes = 0, 0
		}
		if cfg.UseModelPU {
			model := workload.NewUtilizationModel(cfg.Collection)
			cacheCfg.PU = model.PU
		}
		var cacheDev storage.Device
		if cfg.Mode == CacheTwoLevel {
			// The cache SSD lives on a private clock: the manager spends the
			// service times it returns on the shared clock itself, reads at
			// once and flushes through its command queue.
			need := cacheCfg.SSDResultBytes + cacheCfg.SSDListBytes + cacheSSDSpareBytes
			s.CacheSSD = flashsim.NewFTL(cfg.CacheFTL, "cache-ssd", simclock.New(), flashsim.DefaultParams(need))
			// The manager places, flushes and trims in units of BlockBytes on
			// the premise that each is one erase block of the device.
			if bb, eb := cacheCfg.Effective().BlockBytes, s.CacheSSD.BlockSize(); bb != eb {
				return nil, fmt.Errorf("hybrid: Cache.BlockBytes %d differs from the cache SSD's erase block %d",
					bb, eb)
			}
			cacheDev = s.CacheSSD
			if cfg.CacheFaults.Enabled() {
				s.CacheFaults = storage.NewFaultyDevice(s.CacheSSD, cfg.CacheFaults, nil)
				cacheDev = s.CacheFaults
			}
		}
		m, err := core.New(clock, ix, cacheDev, cacheCfg)
		if err != nil {
			return nil, err
		}
		s.Manager = m
		s.Engine = engine.New(m, engCfg)
		// A full result must fit the fixed entry: one that did not would be
		// cached cut short and fail to decode on its first hit.
		s.entry = make([]byte, m.Config().ResultEntryBytes)
		topK := s.Engine.Config().TopK
		if need := engine.EncodedResultBytes(topK, s.docBytes); need > len(s.entry) {
			return nil, fmt.Errorf("hybrid: a result of Engine.TopK %d × DocResultBytes %d encodes to %d bytes, over Cache.ResultEntryBytes %d",
				topK, s.docBytes, need, len(s.entry))
		}
	} else {
		s.Engine = engine.New(ix, engCfg)
	}
	s.engCfg = engCfg

	s.Log = workload.NewQueryLog(cfg.QueryLog)
	return s, nil
}

// cacheSSDSpareBytes is the space a cache SSD holds beyond the cache
// regions. The manager never writes it, so to the FTL it is
// over-provisioning (and it sizes the spare blocks DefaultParams derives):
// GC page copies, write amplification and erase counts depend on it.
// Changing it moves every wear number, and bench/traced.go sizes its cache
// drive with the same sum.
const cacheSSDSpareBytes = 2 << 20

// SearchInfo describes how one query was served.
type SearchInfo struct {
	// Cached is true when the result came from the result cache.
	Cached bool
	// Source reports the cache level on a hit.
	Source core.ResultSource
	// Elapsed is the simulated response time.
	Elapsed time.Duration
	// BytesRead counts list bytes the execution pulled (0 on result hits).
	BytesRead int64
}

// Search processes one query through the full hierarchy: result-cache
// lookup, query execution on miss, result caching, situation accounting.
// With observability enabled it also brackets the query with a trace.
func (s *System) Search(q workload.Query) (*engine.Result, SearchInfo, error) {
	return s.ServeAfterWait(q, 0)
}

// ServeAfterWait is Search for the serving layer: the query spent wait
// queued behind other work before the hierarchy could start on it. The
// wait is charged to the query on this system's clock under the
// queue_wait attribution component, so Elapsed (and the trace's attrib
// map) covers queueing delay plus service time exactly. Search is
// ServeAfterWait with zero wait.
func (s *System) ServeAfterWait(q workload.Query, wait time.Duration) (*engine.Result, SearchInfo, error) {
	if s.obs == nil {
		return s.search(q, wait)
	}
	s.obs.BeginQuery(q.ID, s.Clock.Now())
	res, info, err := s.search(q, wait)
	s.obs.EndQuery(s.Clock.Now(), info.Elapsed)
	return res, info, err
}

func (s *System) search(q workload.Query, wait time.Duration) (*engine.Result, SearchInfo, error) {
	sw := simclock.StartStopwatch(s.Clock)
	if wait > 0 {
		s.Clock.AdvanceAttr(wait, simclock.CompQueueWait)
		if s.obs != nil {
			s.obs.Tracer.QueueWait()
		}
	}
	if s.Manager == nil {
		res, stats, err := s.Engine.Execute(q)
		return res, SearchInfo{Elapsed: sw.Elapsed(), BytesRead: stats.BytesRead}, err
	}

	m := s.Manager
	m.BeginQuery(q.ID)
	if data, src := m.GetResult(q.ID); src != core.ResultMiss {
		res, err := engine.DecodeResult(data)
		info := SearchInfo{Cached: true, Source: src, Elapsed: sw.Elapsed()}
		m.EndQuery(info.Elapsed)
		return res, info, err
	}

	res, stats, err := s.Engine.Execute(q)
	if err != nil {
		m.EndQuery(sw.Elapsed())
		return nil, SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	for _, ts := range stats.Terms {
		m.RecordUtilization(ts.Term, ts.Utilization)
	}
	if err := m.PutResult(q.ID, s.encodeEntry(res)); err != nil {
		m.EndQuery(sw.Elapsed())
		return nil, SearchInfo{Elapsed: sw.Elapsed()}, err
	}
	info := SearchInfo{Elapsed: sw.Elapsed(), BytesRead: stats.BytesRead}
	m.EndQuery(info.Elapsed)
	return res, info, nil
}

// encodeEntry encodes res into the scratch, valid until the next call, after
// clearing what a longer previous result left past this one's records.
func (s *System) encodeEntry(res *engine.Result) []byte {
	need := engine.WrittenResultBytes(len(res.Docs))
	if need < s.entryDirty {
		clear(s.entry[need:s.entryDirty])
	}
	s.entryDirty = need
	return res.EncodeTo(s.entry, s.docBytes)
}

// SearchNext pulls the next query from the log and Searches it.
func (s *System) SearchNext() (*engine.Result, SearchInfo, error) {
	return s.Search(s.Log.Next())
}

// Run executes n queries from the log and returns aggregate measurements.
func (s *System) Run(n int) (RunStats, error) {
	var rs RunStats
	start := s.Clock.Now()
	for i := 0; i < n; i++ {
		_, info, err := s.SearchNext()
		if err != nil {
			return rs, fmt.Errorf("hybrid: query %d: %w", i, err)
		}
		rs.Queries++
		rs.TotalTime += info.Elapsed
		if info.Cached {
			rs.ResultHits++
		}
	}
	rs.WallTime = s.Clock.Now() - start
	return rs, nil
}

// RunStats aggregates a Run.
type RunStats struct {
	Queries    int
	ResultHits int
	TotalTime  time.Duration
	WallTime   time.Duration
}

// MeanResponseTime returns the average simulated response time.
func (r RunStats) MeanResponseTime() time.Duration {
	if r.Queries == 0 {
		return 0
	}
	return r.TotalTime / time.Duration(r.Queries)
}

// Throughput returns simulated queries per second.
func (r RunStats) Throughput() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Queries) / r.WallTime.Seconds()
}
