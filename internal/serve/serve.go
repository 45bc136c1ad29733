// Package serve is the concurrent multi-user serving layer: it partitions
// the cache hierarchy into independent shards routed by query-ID hash,
// coalesces identical in-flight queries singleflight-style, and replays an
// open-loop arrival stream on a deterministic discrete-event scheduler so
// simulated time stays exact under concurrency.
//
// Concurrency is modeled, not executed: one goroutine drains a
// (time, priority, sequence)-ordered event queue over the arrival
// timeline, so every run with the same configuration observes the same
// interleaving of arrivals and completions. Each shard is a complete
// hybrid.System whose own clock measures per-query serving latency
// (queue wait + service); queue delay is charged to the query under the
// simclock.CompQueueWait attribution component, which keeps every trace's
// attribution map summing exactly to its elapsed time.
package serve

import (
	"fmt"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// Event-queue priorities: completions fire before arrivals at the same
// simulated instant, so a query arriving exactly when its twin completes
// starts a fresh flight instead of coalescing onto a finished one.
const (
	prioCompletion = 0
	prioArrival    = 1
)

// hotWarm is how many of the warm phase's most frequent queries Warm
// re-executes per shard (ranked by the manager's queryFreq sketch), so the
// hottest results are resident when the open-loop run starts.
const hotWarm = 32

// Config assembles a serving Pool.
type Config struct {
	// Base is the full-system configuration. Each shard is built from it
	// with the four cache budgets divided by Shards, so the aggregate
	// cache capacity stays fixed while the state is partitioned.
	Base hybrid.Config
	// Shards is the number of independent cache partitions (>= 1).
	Shards int
	// Rate is the open-loop offered load in queries per simulated second,
	// the mean of workload.Arrivals' diurnal Poisson stream.
	Rate float64
	// WarmQueries runs closed-loop (zero queue delay) through the shards
	// before measurement to reach cache steady state.
	WarmQueries int
	// Observer, when non-nil, is forked per shard: every shard keeps its
	// own histograms and samples while all traces land in one shared
	// stream, including synthetic traces for coalesced queries.
	Observer *obs.Observer
}

// flight is one in-flight execution a shard owes: the leader query plus
// every identical query that arrived while it was queued or executing.
type flight struct {
	qid     uint64
	arrived time.Duration   // leader arrival instant
	waiters []time.Duration // follower arrival instants, in arrival order
}

// shard is one cache partition: a full hybrid.System plus the dispatch
// state the event loop drives.
type shard struct {
	sys *hybrid.System
	obs *obs.Observer // nil without Config.Observer

	queue    []*flight          // FIFO of flights waiting to start
	inflight map[uint64]*flight // queued or executing, by qid
	running  *flight            // nil while idle
	busyNS   int64              // total service time (excl. queue wait)
	executed int64              // leader executions
}

// Pool is the serving layer: N shards behind a deterministic dispatcher.
type Pool struct {
	cfg    Config
	shards []*shard
	log    *workload.QueryLog // arrival-side query stream, shared across shards

	events *simclock.EventQueue
	lat    *metrics.Histogram // all-queries serving latency, µs

	obsOn     bool
	arrivals  int64
	coalesced int64
	queueWait time.Duration // total leader queue delay
	maxQueue  int           // peak queued flights on any one shard
	horizon   time.Duration // last arrival instant
	makespan  time.Duration // last completion instant
	err       error
}

// shardCache divides the four cache budgets of base by n. It fails when a
// partition would fall below the manager's structural minima (one result
// entry in L1, one block per enabled SSD region) — that bounds how far a
// given configuration can shard.
func shardCache(base core.Config, n int) (core.Config, error) {
	c := base
	c.MemResultBytes /= int64(n)
	c.MemListBytes /= int64(n)
	c.SSDResultBytes /= int64(n)
	c.SSDListBytes /= int64(n)
	if c.MemResultBytes < c.ResultEntryBytes {
		return c, fmt.Errorf("serve: %d shards leave L1 RC %d below one %d-byte entry",
			n, c.MemResultBytes, c.ResultEntryBytes)
	}
	if c.MemListBytes <= 0 {
		return c, fmt.Errorf("serve: %d shards leave no L1 IC capacity", n)
	}
	if base.SSDResultBytes > 0 && c.SSDResultBytes < c.BlockBytes {
		return c, fmt.Errorf("serve: %d shards leave SSD result region %d below one %d-byte block",
			n, c.SSDResultBytes, c.BlockBytes)
	}
	if base.SSDListBytes > 0 && c.SSDListBytes < c.BlockBytes {
		return c, fmt.Errorf("serve: %d shards leave SSD list region %d below one %d-byte block",
			n, c.SSDListBytes, c.BlockBytes)
	}
	return c, nil
}

// New builds the pool: Shards complete systems with partitioned cache
// budgets, one shared arrival-side query log, and (optionally) per-shard
// observer forks.
func New(cfg Config) (*Pool, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("serve: Shards = %d", cfg.Shards)
	}
	if err := workload.ValidateRate(cfg.Rate); err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:    cfg,
		log:    workload.NewQueryLog(cfg.Base.QueryLog),
		events: simclock.NewEventQueue(),
		lat:    metrics.NewHistogram(obs.LatencyBounds()),
	}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Base
		var err error
		scfg.Cache, err = shardCache(cfg.Base.Cache, cfg.Shards)
		if err != nil {
			return nil, err
		}
		sys, err := hybrid.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		p.shards = append(p.shards, &shard{sys: sys, inflight: make(map[uint64]*flight)})
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return p.cfg.Shards }

// System returns shard i's underlying system (tests and reports).
func (p *Pool) System(i int) *hybrid.System { return p.shards[i].sys }

// route maps a query ID to its owning shard with a splitmix64 finalizer —
// qids are small Zipf ranks, so they need mixing before the modulus.
func (p *Pool) route(qid uint64) *shard {
	x := qid + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return p.shards[x%uint64(len(p.shards))]
}

// Warm reaches cache steady state before the open-loop run: WarmQueries
// closed-loop queries routed across the shards, then a frequency-ranked
// warming pass re-executing each shard's hotWarm hottest queries (seeded
// by the queryFreq sketch the warm phase populated), then a stats reset so
// measurement covers only the open-loop window.
func (p *Pool) Warm() error {
	for i, sh := range p.shards {
		if _, err := sh.sys.WarmupStatic(2 * p.cfg.WarmQueries); err != nil {
			return fmt.Errorf("serve: shard %d static warmup: %w", i, err)
		}
	}
	for i := 0; i < p.cfg.WarmQueries; i++ {
		q := p.log.Next()
		if _, _, err := p.route(q.ID).sys.Search(q); err != nil {
			return fmt.Errorf("serve: warm query %d: %w", i, err)
		}
	}
	for i, sh := range p.shards {
		if sh.sys.Manager == nil {
			continue
		}
		for _, qid := range sh.sys.Manager.HotQueries(hotWarm) {
			if _, _, err := sh.sys.Search(p.log.QueryByID(qid)); err != nil {
				return fmt.Errorf("serve: shard %d hot warm qid %d: %w", i, qid, err)
			}
		}
	}
	for _, sh := range p.shards {
		if sh.sys.Manager != nil {
			sh.sys.Manager.ResetStats()
		}
	}
	return nil
}

// Run replays n open-loop arrivals through the pool and reports the
// aggregate serving measurements. The event loop is strictly serial:
// arrivals and completions interleave in (time, priority, sequence) order,
// so the result is a pure function of the configuration.
func (p *Pool) Run(n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("serve: Run(%d)", n)
	}
	// Observability attaches here, not in New, so traces, latency
	// histograms and samples cover exactly the measured open-loop window —
	// the warm phase stays invisible, like runMeasured's post-warm stats
	// reset.
	if p.cfg.Observer != nil && !p.obsOn {
		p.obsOn = true
		for _, sh := range p.shards {
			sh.obs = p.cfg.Observer.Fork()
			sh.sys.EnableObservability(sh.obs)
		}
	}
	arr := workload.NewArrivals(p.cfg.Rate)
	remaining := n

	// Arrivals are scheduled lazily — each one schedules its successor —
	// so the heap holds one pending arrival plus at most one completion
	// per shard.
	var scheduleArrival func()
	scheduleArrival = func() {
		if remaining == 0 || p.err != nil {
			return
		}
		remaining--
		at := arr.Next()
		q := p.log.Next()
		p.events.Schedule(at, prioArrival, func(at time.Duration) {
			scheduleArrival()
			p.arrive(q, at)
		})
	}
	scheduleArrival()

	for p.err == nil && p.events.RunNext() {
	}
	if p.err != nil {
		return Result{}, p.err
	}
	return p.result(), nil
}

// arrive processes one arrival: coalesce onto an identical in-flight
// query, or open a new flight and start it if the shard is idle.
func (p *Pool) arrive(q workload.Query, at time.Duration) {
	p.arrivals++
	p.horizon = at
	sh := p.route(q.ID)
	if fl := sh.inflight[q.ID]; fl != nil {
		fl.waiters = append(fl.waiters, at)
		p.coalesced++
		return
	}
	fl := &flight{qid: q.ID, arrived: at}
	sh.inflight[q.ID] = fl
	sh.queue = append(sh.queue, fl)
	if qn := len(sh.queue); qn > p.maxQueue {
		p.maxQueue = qn
	}
	if sh.running == nil {
		p.startNext(sh, at)
	}
}

// startNext pops the shard's queue head and executes it. The execution
// runs eagerly at the flight's start instant — the shard's own clock
// measures queue wait (charged via CompQueueWait) plus service — and the
// completion is scheduled at start + service on the arrival timeline, so
// queries arriving before that instant still coalesce onto this flight.
func (p *Pool) startNext(sh *shard, now time.Duration) {
	fl := sh.queue[0]
	sh.queue = sh.queue[1:]
	sh.running = fl

	wait := now - fl.arrived
	_, info, err := sh.sys.ServeAfterWait(p.log.QueryByID(fl.qid), wait)
	if err != nil {
		p.err = fmt.Errorf("serve: qid %d: %w", fl.qid, err)
		return
	}
	service := info.Elapsed - wait
	sh.busyNS += int64(service)
	sh.executed++
	p.queueWait += wait
	p.lat.Observe(info.Elapsed.Microseconds())

	p.events.Schedule(now+service, prioCompletion, func(at time.Duration) {
		p.complete(sh, fl, at)
	})
}

// complete retires a flight: every coalesced follower is charged its full
// wait (leader completion minus its own arrival) as queue_wait — with a
// synthetic trace when observability is on — and the next queued flight,
// if any, starts immediately.
func (p *Pool) complete(sh *shard, fl *flight, at time.Duration) {
	for _, w := range fl.waiters {
		d := at - w
		p.lat.Observe(d.Microseconds())
		if sh.obs != nil {
			// The sample timestamp is the shard clock's Now — monotone
			// per observer — not the arrival-timeline instant, which would
			// run backwards relative to eagerly executed queries.
			sh.obs.CoalescedQuery(fl.qid, w, d, sh.sys.Clock.Now())
		}
	}
	delete(sh.inflight, fl.qid)
	sh.running = nil
	p.makespan = at
	if len(sh.queue) > 0 && p.err == nil {
		p.startNext(sh, at)
	}
}

// MergeProfile folds every shard observer's per-situation latency
// attribution into dst (no-op for shards without observability). Profiles
// merge commutatively, so the fold is deterministic regardless of how the
// enclosing sweep schedules points.
func (p *Pool) MergeProfile(dst *obs.Profile) {
	for _, sh := range p.shards {
		if sh.obs != nil {
			dst.Merge(sh.obs.Profile())
		}
	}
}

// result folds the run's measurements.
func (p *Pool) result() Result {
	r := Result{
		Shards:    p.cfg.Shards,
		Arrivals:  p.arrivals,
		Coalesced: p.coalesced,
		Horizon:   p.horizon,
		Makespan:  p.makespan,
		QueueWait: p.queueWait,
		MaxQueue:  p.maxQueue,
		Latency:   p.lat.Summary(),
	}
	for _, sh := range p.shards {
		r.Executed += sh.executed
		r.BusyTime += time.Duration(sh.busyNS)
	}
	return r
}

// CalibrateQPS measures a configuration's single-shard closed-loop
// capacity: a fresh unsharded system serves n queries back-to-back after
// warm queries of cache warm-up, and the measured throughput is the
// saturation rate μ one shard can sustain. A static-partition policy is
// first statically warmed from 2·warm sampled queries, as Warm does, so μ
// is measured on the system the pool serves with. Sweeps express offered
// load as multiples of μ so "below/past saturation" means the same thing at
// every scale.
func CalibrateQPS(base hybrid.Config, warm, n int) (float64, error) {
	sys, err := hybrid.New(base)
	if err != nil {
		return 0, err
	}
	if _, err := sys.WarmupStatic(2 * warm); err != nil {
		return 0, err
	}
	if _, err := sys.Run(warm); err != nil {
		return 0, err
	}
	if sys.Manager != nil {
		sys.Manager.ResetStats()
	}
	rs, err := sys.Run(n)
	if err != nil {
		return 0, err
	}
	return rs.Throughput(), nil
}

// Result aggregates one open-loop serving run.
type Result struct {
	// Shards is the pool's shard count.
	Shards int
	// Arrivals is the number of queries offered; Executed of them ran and
	// Coalesced were served by an identical in-flight leader
	// (Executed + Coalesced == Arrivals).
	Arrivals  int64
	Executed  int64
	Coalesced int64
	// Horizon is the last arrival instant; Makespan the last completion.
	// Makespan − Horizon is the backlog drain: zero-ish when the pool
	// keeps up, growing without bound past saturation.
	Horizon  time.Duration
	Makespan time.Duration
	// QueueWait is total leader queue delay; BusyTime total service time
	// across shards (utilization = BusyTime / (Shards × Makespan)).
	QueueWait time.Duration
	BusyTime  time.Duration
	// MaxQueue is the peak number of queued flights on any one shard.
	MaxQueue int
	// Latency summarizes every query's serving latency (µs): leaders
	// measure queue wait + service, coalesced followers their whole wait.
	Latency metrics.Summary
}

// OfferedQPS is the arrival rate actually generated (arrivals / horizon).
func (r Result) OfferedQPS() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Arrivals) / r.Horizon.Seconds()
}

// ThroughputQPS is completed queries per second of simulated serving time
// (arrivals / makespan): it tracks OfferedQPS while the pool keeps up and
// plateaus at capacity past saturation.
func (r Result) ThroughputQPS() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Arrivals) / r.Makespan.Seconds()
}

// Utilization is the busy fraction of the pool over the run.
func (r Result) Utilization() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.BusyTime.Seconds() / (float64(r.Shards) * r.Makespan.Seconds())
}

// String renders the headline measurements on one line.
func (r Result) String() string {
	return fmt.Sprintf(
		"shards=%d queries=%d coalesced=%d offered=%.1fq/s tput=%.1fq/s util=%.2f p50=%v p99=%v p999=%v maxq=%d",
		r.Shards, r.Arrivals, r.Coalesced, r.OfferedQPS(), r.ThroughputQPS(),
		r.Utilization(), metrics.USDuration(r.Latency.P50), metrics.USDuration(r.Latency.P99),
		metrics.USDuration(r.Latency.P999), r.MaxQueue)
}
