package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// testBase returns a small two-level configuration every test shares. The
// index image is built once per process and stamped onto each system.
var (
	imgOnce sync.Once
	img     *index.Image
	imgErr  error
)

func testBase(t *testing.T) hybrid.Config {
	t.Helper()
	collection := workload.DefaultCollection(150_000)
	collection.VocabSize = 1200
	collection.MaxDFShare = 0.2
	log := workload.DefaultQueryLog(collection.VocabSize)
	log.DistinctQueries = 3000

	cacheCfg := core.DefaultConfig(1 << 19)
	cacheCfg.TEV = 2
	cacheCfg.SSDResultBytes = 1 << 19
	cacheCfg.SSDListBytes = 3 << 20

	engCfg := engine.DefaultConfig()
	engCfg.TerminationFrac = 0.35

	imgOnce.Do(func() { img, imgErr = index.BuildImage(collection, index.CodecRaw) })
	if imgErr != nil {
		t.Fatalf("BuildImage: %v", imgErr)
	}
	return hybrid.Config{
		Collection: collection,
		QueryLog:   log,
		Cache:      cacheCfg,
		Mode:       hybrid.CacheTwoLevel,
		IndexOn:    hybrid.IndexOnHDD,
		Engine:     engCfg,
		UseModelPU: true,
		IndexImage: img,
	}
}

// calibrated returns the single-shard closed-loop capacity for testBase,
// measured once and cached.
var (
	muOnce sync.Once
	muQPS  float64
	muErr  error
)

func calibratedQPS(t *testing.T) float64 {
	t.Helper()
	base := testBase(t)
	muOnce.Do(func() { muQPS, muErr = CalibrateQPS(base, 200, 300) })
	if muErr != nil {
		t.Fatalf("CalibrateQPS: %v", muErr)
	}
	if muQPS <= 0 {
		t.Fatalf("calibrated capacity %v", muQPS)
	}
	return muQPS
}

// TestCalibrateWarmsStaticPartition: for a static-partition policy μ comes
// from a system statically warmed the way Pool.Warm warms each shard, not
// from one whose static partition is still empty.
func TestCalibrateWarmsStaticPartition(t *testing.T) {
	base := testBase(t)
	base.Cache.Policy = core.PolicyCBSLRU
	const warm, n = 200, 300
	got, err := CalibrateQPS(base, warm, n)
	if err != nil {
		t.Fatalf("CalibrateQPS: %v", err)
	}
	sys, err := hybrid.New(base)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sys.WarmupStatic(2 * warm); err != nil {
		t.Fatalf("WarmupStatic: %v", err)
	}
	if _, err := sys.Run(warm); err != nil {
		t.Fatalf("warm: %v", err)
	}
	sys.Manager.ResetStats()
	rs, err := sys.Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := rs.Throughput(); got != want {
		t.Fatalf("CalibrateQPS = %.3f q/s, statically warmed system sustains %.3f q/s", got, want)
	}
}

func poolConfig(t *testing.T, shards int, rate float64) Config {
	t.Helper()
	return Config{
		Base:        testBase(t),
		Shards:      shards,
		Rate:        rate,
		WarmQueries: 300,
	}
}

func runPool(t *testing.T, cfg Config, n int) Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Warm(); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	r, err := p.Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

// TestCoalescingAccounting drives the pool well past single-shard
// saturation so identical queries pile up in flight, and checks the
// singleflight ledger: every arrival is either one leader execution or a
// coalesced follower, and followers exist under this load.
func TestCoalescingAccounting(t *testing.T) {
	mu := calibratedQPS(t)
	r := runPool(t, poolConfig(t, 1, 3*mu), 800)
	if r.Executed+r.Coalesced != r.Arrivals {
		t.Fatalf("executed %d + coalesced %d != arrivals %d", r.Executed, r.Coalesced, r.Arrivals)
	}
	if r.Coalesced == 0 {
		t.Fatal("no coalescing at 3x saturation; singleflight never engaged")
	}
	if r.Executed == 0 {
		t.Fatal("nothing executed")
	}
	if got := r.Latency.Count; got != r.Arrivals {
		t.Fatalf("latency histogram holds %d samples, want %d", got, r.Arrivals)
	}
}

// TestCoalescedTraces verifies the per-query observability of followers:
// each coalesced serve emits exactly one synthetic trace whose situation
// is "coalesced" and whose attribution is entirely queue_wait, summing
// exactly to elapsed_ns — the same contract tracetool audits.
func TestCoalescedTraces(t *testing.T) {
	mu := calibratedQPS(t)
	var buf bytes.Buffer
	cfg := poolConfig(t, 2, 3*mu)
	cfg.Observer = obs.New(obs.Options{SpanLimit: 8, TraceOut: &buf})
	r := runPool(t, cfg, 800)

	type trace struct {
		Situation string           `json:"situation"`
		ElapsedNS int64            `json:"elapsed_ns"`
		Attrib    map[string]int64 `json:"attrib"`
	}
	var coalesced, leaders, queueWaited int64
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var tr trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		var sum int64
		for _, v := range tr.Attrib {
			sum += v
		}
		if sum != tr.ElapsedNS {
			t.Fatalf("attrib sum %d != elapsed_ns %d (situation %q)", sum, tr.ElapsedNS, tr.Situation)
		}
		if qw := tr.Attrib[simclock.CompQueueWait.String()]; qw > 0 {
			queueWaited++
		}
		if tr.Situation == "coalesced" {
			coalesced++
			if tr.Attrib[simclock.CompQueueWait.String()] != tr.ElapsedNS {
				t.Fatalf("coalesced trace not pure queue_wait: %+v", tr)
			}
		} else {
			leaders++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if coalesced != r.Coalesced {
		t.Fatalf("%d coalesced traces, result says %d", coalesced, r.Coalesced)
	}
	if leaders != r.Executed {
		t.Fatalf("%d leader traces, result says %d executed", leaders, r.Executed)
	}
	if queueWaited == 0 {
		t.Fatal("no trace carries queue_wait despite saturation")
	}
}

// TestRunDeterminism: the event loop is a pure function of the
// configuration — same config, same Result line and same trace stream,
// byte for byte.
func TestRunDeterminism(t *testing.T) {
	mu := calibratedQPS(t)
	run := func() (string, string) {
		var buf bytes.Buffer
		cfg := poolConfig(t, 2, 2*mu)
		cfg.Observer = obs.New(obs.Options{SpanLimit: 8, TraceOut: &buf})
		r := runPool(t, cfg, 500)
		return r.String(), buf.String()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 {
		t.Fatalf("results differ:\n%s\n%s", r1, r2)
	}
	if t1 != t2 {
		t.Fatal("trace streams differ between identical runs")
	}
	if !strings.Contains(r1, "shards=2") {
		t.Fatalf("unexpected result line %q", r1)
	}
}

// TestThroughputScalesWithShards: at a fixed offered load past one
// shard's capacity, adding shards must raise delivered throughput and cut
// tail latency.
func TestThroughputScalesWithShards(t *testing.T) {
	mu := calibratedQPS(t)
	r1 := runPool(t, poolConfig(t, 1, 3*mu), 700)
	r4 := runPool(t, poolConfig(t, 4, 3*mu), 700)
	if r4.ThroughputQPS() <= r1.ThroughputQPS() {
		t.Fatalf("throughput did not scale: 1 shard %.1f q/s, 4 shards %.1f q/s",
			r1.ThroughputQPS(), r4.ThroughputQPS())
	}
	if r4.Latency.P99 >= r1.Latency.P99 {
		t.Fatalf("p99 did not improve: 1 shard %v µs, 4 shards %v µs", r1.Latency.P99, r4.Latency.P99)
	}
}

// TestShardCacheBounds: partitioning must refuse shard counts that push a
// cache region below its structural minimum.
func TestShardCacheBounds(t *testing.T) {
	base := testBase(t).Cache
	if _, err := shardCache(base, 4); err != nil {
		t.Fatalf("4 shards should fit: %v", err)
	}
	if _, err := shardCache(base, 64); err == nil {
		t.Fatal("64 shards should overflow the L1 result budget")
	}
	if _, err := New(Config{Base: testBase(t), Shards: 64, Rate: 100}); err == nil {
		t.Fatal("New accepted an unshardable configuration")
	}
}

// TestWarmSeedsHotQueries: the warm pass populates the per-shard
// queryFreq sketch; hotWarm re-executes the hottest of them, so the
// hottest query IDs must be result-cache resident when Run starts.
func TestWarmSeedsHotQueries(t *testing.T) {
	cfg := poolConfig(t, 2, 100)
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.Warm(); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	for i := 0; i < p.Shards(); i++ {
		sys := p.System(i)
		hot := sys.Manager.HotQueries(5)
		if len(hot) == 0 {
			t.Fatalf("shard %d saw no queries during warm", i)
		}
		for j := 1; j < len(hot); j++ {
			a, b := sys.Manager.QueryFrequency(hot[j-1]), sys.Manager.QueryFrequency(hot[j])
			if a < b {
				t.Fatalf("shard %d hot ranking not descending: freq(%d)=%d < freq(%d)=%d",
					i, hot[j-1], a, hot[j], b)
			}
		}
	}
}
