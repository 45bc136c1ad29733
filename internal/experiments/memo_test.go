package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/simclock"
	"hybridstore/internal/workload"
)

// attribution sums every advance of clock by component.
func attribution(clock *simclock.Clock) map[simclock.Component]time.Duration {
	attr := make(map[simclock.Component]time.Duration)
	clock.OnAdvance(func(c simclock.Component, d time.Duration) { attr[c] += d })
	return attr
}

// plainAndMemoized builds cfg twice over the shared image: once as build
// does, its engine replaying the memo, and once scoring every query.
func plainAndMemoized(t *testing.T, cfg hybrid.Config) (plain, memod *hybrid.System) {
	t.Helper()
	memod, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := stamp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err = hybrid.New(stamped); err != nil {
		t.Fatal(err)
	}
	return plain, memod
}

// TestMemoReplayMatchesScoring feeds a memoized system and a plain one the
// same stream, through Search and through Engine.Execute in turn, and
// requires the same answer, stats, error, clock and attribution after every
// query, over every cache arrangement the experiments measure.
func TestMemoReplayMatchesScoring(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	docs := sc.BaseDocs
	point := func(mode hybrid.CacheMode, on hybrid.IndexPlacement, policy core.Policy) hybrid.Config {
		return sc.config(docs, mode, on, sc.cacheConfig(policy))
	}
	ttl := point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBLRU)
	ttl.Cache.ResultTTL, ttl.Cache.ListTTL = 2*time.Second, 2*time.Second
	hybridLog := point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBLRU)
	hybridLog.CacheFTL = flashsim.FTLHybridLog
	faults := point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBLRU)
	faults.CacheFaults = faultSpec(0.05)
	cases := []struct {
		name string
		cfg  hybrid.Config
	}{
		{"none-hdd", sc.config(docs, hybrid.CacheNone, hybrid.IndexOnHDD, core.Config{})},
		{"none-ssd", sc.config(docs, hybrid.CacheNone, hybrid.IndexOnSSD, core.Config{})},
		{"1lc", point(hybrid.CacheOneLevel, hybrid.IndexOnHDD, core.PolicyCBLRU)},
		{"2lc-lru", point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyLRU)},
		{"2lc-cblru", point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBLRU)},
		{"2lc-cbslru", point(hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBSLRU)},
		{"ttl", ttl},
		{"hybrid-log", hybridLog},
		{"faults", faults},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, memod := plainAndMemoized(t, c.cfg)
			for _, sys := range []*hybrid.System{plain, memod} {
				if _, err := sys.WarmupStatic(2 * sc.WarmQueries); err != nil {
					t.Fatal(err)
				}
			}
			attrP, attrM := attribution(plain.Clock), attribution(memod.Clock)
			for i := 0; i < sc.WarmQueries+sc.MeasureQueries; i++ {
				q := plain.Log.Next()
				if qm := memod.Log.Next(); !reflect.DeepEqual(q, qm) {
					t.Fatalf("query %d: the two logs diverged", i)
				}
				var got, want [3]any
				if i%3 == 2 {
					rp, sp, errP := plain.Engine.Execute(q)
					rm, sm, errM := memod.Engine.Execute(q)
					want, got = [3]any{rp, sp, fmt.Sprint(errP)}, [3]any{rm, sm, fmt.Sprint(errM)}
				} else {
					rp, ip, errP := plain.Search(q)
					rm, im, errM := memod.Search(q)
					want, got = [3]any{rp, ip, fmt.Sprint(errP)}, [3]any{rm, im, fmt.Sprint(errM)}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (%v): memoized returned %+v, plain %+v", i, q.Terms, got, want)
				}
				if plain.Clock.Now() != memod.Clock.Now() || !reflect.DeepEqual(attrP, attrM) {
					t.Fatalf("query %d: clock %v / %v, attribution %v / %v", i, memod.Clock.Now(), plain.Clock.Now(), attrM, attrP)
				}
				if plain.Manager != nil && !reflect.DeepEqual(plain.Manager.Stats(), memod.Manager.Stats()) {
					t.Fatalf("query %d: cache stats diverged:\n%+v\n%+v", i, memod.Manager.Stats(), plain.Manager.Stats())
				}
			}
		})
	}
}

// failEvery fails every n-th list read, before it reaches the source.
type failEvery struct {
	engine.ListSource
	n, calls int
}

var errInjected = errors.New("injected read error")

func (f *failEvery) ReadListRange(t workload.TermID, off int64, p []byte) error {
	if f.calls++; f.calls%f.n == 0 {
		return fmt.Errorf("term %d offset %d: %w", t, off, errInjected)
	}
	return f.ListSource.ReadListRange(t, off, p)
}

// TestMemoReplayMatchesScoringOnReadErrors: a read that fails mid-query
// returns from a replay what it returns from scoring — no result, the stats
// of the terms finished and the postings scored so far — with the same
// clock.
func TestMemoReplayMatchesScoringOnReadErrors(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	plain, memod := plainAndMemoized(t, sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU)))
	engines := [2]*engine.Engine{}
	for i, sys := range []*hybrid.System{plain, memod} {
		cfg := sys.Engine.Config()
		engines[i] = engine.New(&failEvery{ListSource: sys.Manager, n: 7}, cfg)
	}
	img, err := sharedImage(sc.collection(sc.BaseDocs), sc.Codec)
	if err != nil {
		t.Fatal(err)
	}
	engines[1].UseMemo(sharedMemo(img, engines[1].Config()))
	failed, partial := 0, 0
	for i := 0; i < sc.MeasureQueries; i++ {
		q := plain.Log.Next()
		rp, sp, errP := engines[0].Execute(q)
		rm, sm, errM := engines[1].Execute(q)
		if !reflect.DeepEqual(rm, rp) || !reflect.DeepEqual(sm, sp) || fmt.Sprint(errM) != fmt.Sprint(errP) {
			t.Fatalf("query %d (%v): memoized returned %+v %+v %v, plain %+v %+v %v", i, q.Terms, rm, sm, errM, rp, sp, errP)
		}
		if plain.Clock.Now() != memod.Clock.Now() {
			t.Fatalf("query %d: clock %v, plain %v", i, memod.Clock.Now(), plain.Clock.Now())
		}
		if errP != nil {
			failed++
			if sp.PostingsScored > 0 {
				partial++
			}
		}
	}
	if failed == 0 || partial == 0 {
		t.Fatalf("%d queries failed, %d of them after scoring: the errors never fired mid-query", failed, partial)
	}
}

// TestMemoFirstSightOnce: points that miss one key at the same time wait on
// one first-sight execution, and all get its answer.
func TestMemoFirstSightOnce(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	cfg := sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU))
	q := workload.Query{ID: 1, Terms: []workload.TermID{5, 17, 301}}
	const points = 6
	systems := make([]*hybrid.System, points)
	for i := range systems {
		var err error
		if systems[i], err = build(cfg); err != nil {
			t.Fatal(err)
		}
	}
	results := make([]*engine.Result, points)
	errs := make([]error, points)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = sys.Search(q)
		}()
	}
	close(start)
	wg.Wait()
	for i := range results {
		if errs[i] != nil || !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("point %d: %v, %+v; point 0: %+v", i, errs[i], results[i], results[0])
		}
	}
	if entries, bytes, replays := MemoStats(); entries != 1 || replays != points || bytes <= 0 {
		t.Fatalf("%d first sights, %d replays, %d bytes: want 1, %d and some", entries, replays, bytes, points)
	}
}

// flipRead flips the top bit of byte at of the first read after armed.
type flipRead struct {
	*flashsim.SSD
	armed, fired bool
	at           int
}

func (f *flipRead) ReadAt(p []byte, off int64) (time.Duration, error) {
	d, err := f.SSD.ReadAt(p, off)
	if f.armed && !f.fired && err == nil && len(p) > f.at {
		p[f.at] ^= 0x80
		f.fired = true
	}
	return d, err
}

// TestMemoReplayCatchesACorruptCacheRead: a cache SSD that flips one byte of
// one read makes a replaying engine fail, naming the term and offset, where
// an engine that scores what it reads answers differently and silently. One
// of six consecutive flipped bytes is a posting's high TF byte, which no
// check in the scoring path can see.
func TestMemoReplayCatchesACorruptCacheRead(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	img, err := sharedImage(sc.collection(sc.BaseDocs), sc.Codec)
	if err != nil {
		t.Fatal(err)
	}
	cacheCfg := sc.cacheConfig(core.PolicyCBLRU)
	engCfg := sc.engineConfig()
	truth := engine.New(img, engCfg)
	// stack assembles the two-level list cache over a flipping cache SSD,
	// as hybrid.New does, and returns its engine.
	stack := func(memoized bool) (*engine.Engine, *flipRead) {
		clock := simclock.New()
		ix, err := img.Stamp(disksim.New("hdd", clock, disksim.DefaultParams(img.Bytes()+(1<<20))))
		if err != nil {
			t.Fatal(err)
		}
		dev := &flipRead{SSD: flashsim.New("cache-ssd", simclock.New(),
			flashsim.DefaultParams(cacheCfg.SSDResultBytes+cacheCfg.SSDListBytes+(2<<20)))}
		m, err := core.New(clock, ix, dev, cacheCfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := engCfg
		cfg.Clock = clock
		e := engine.New(m, cfg)
		if memoized {
			e.UseMemo(sharedMemo(img, e.Config()))
		}
		return e, dev
	}
	named := regexp.MustCompile(`term \d+: the \d+ bytes read at offset \d+ differ from the index image`)
	silent := 0
	for at := 0; at < 6; at++ {
		plain, devP := stack(false)
		memod, devM := stack(true)
		log := workload.NewQueryLog(sc.log())
		caught := false
		for i := 0; i < 2*sc.WarmQueries && !caught; i++ {
			q := log.Next()
			if i == sc.WarmQueries {
				devP.armed, devM.armed = true, true
			}
			rp, _, errP := plain.Execute(q)
			rm, _, errM := memod.Execute(q)
			if errM == nil {
				if !reflect.DeepEqual(rm, rp) {
					t.Fatalf("byte %d, query %d: the replay returned %+v where scoring returned %+v", at, i, rm, rp)
				}
				continue
			}
			if !devM.fired || !named.MatchString(errM.Error()) {
				t.Fatalf("byte %d, query %d: the replay failed with %v", at, i, errM)
			}
			caught = true
			want, _, _ := truth.Execute(q)
			if errP == nil && !reflect.DeepEqual(rp.Docs, want.Docs) {
				silent++
			}
		}
		if !caught {
			t.Fatalf("byte %d: the flip (fired %v) was never caught", at, devM.fired)
		}
	}
	if silent == 0 {
		t.Fatal("no flipped byte changed the scoring engine's answer silently: the check proves nothing")
	}
}

// TestMemoHitAllocatesNothing: replaying a recorded execution builds its
// key on the stack and finds it without copying it into a string.
func TestMemoHitAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	sys, err := build(sc.config(sc.BaseDocs, hybrid.CacheNone, hybrid.IndexOnHDD, core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Engine.Memo()
	terms := []workload.TermID{5, 17, 301}
	first, err := m.Recall(terms)
	if err != nil {
		t.Fatal(err)
	}
	var again *engine.Execution
	if allocs := testing.AllocsPerRun(100, func() { again, err = m.Recall(terms) }); allocs != 0 {
		t.Fatalf("a memo hit allocates %v times, want 0", allocs)
	}
	if err != nil || again != first {
		t.Fatalf("a hit returned %p, %v; the first sight recorded %p", again, err, first)
	}
}

// TestWarmupStaticReplaysMemo: a CBSLRU system whose engine replays the
// memo also replays it in static warm-up, one replay per result warm-up
// computes, and pins the same bytes on the cache SSD, at the same simulated
// cost, as a system that scores every warm-up query.
func TestWarmupStaticReplaysMemo(t *testing.T) {
	ResetArtifacts()
	defer ResetArtifacts()
	sc := microScale()
	cfg := sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBSLRU))
	plain, memod := plainAndMemoized(t, cfg)
	n := 2 * sc.WarmQueries
	_, _, before := MemoStats()
	wsMemo, err := memod.WarmupStatic(n)
	if err != nil {
		t.Fatal(err)
	}
	_, _, after := MemoStats()
	wsPlain, err := plain.WarmupStatic(n)
	if err != nil {
		t.Fatal(err)
	}
	if wsMemo != wsPlain || wsMemo.PinnedResults == 0 || wsMemo.PinnedLists == 0 {
		t.Fatalf("warm-up with the memo %+v, without %+v: want equal and pinning both kinds", wsMemo, wsPlain)
	}

	// Warm-up computes the result of every query the sample holds twice or
	// more, in turn, until one does not fit the static partition.
	counts := map[uint64]int{}
	log := workload.NewQueryLog(cfg.QueryLog)
	for i := 0; i < n; i++ {
		counts[log.Next().ID]++
	}
	repeated := 0
	for _, c := range counts {
		if c >= 2 {
			repeated++
		}
	}
	computed := min(repeated, wsMemo.PinnedResults+1)
	if got := after - before; got != int64(computed) {
		t.Fatalf("warm-up replayed %d executions, want the %d results it computed", got, computed)
	}

	if plain.Clock.Now() != memod.Clock.Now() {
		t.Fatalf("warm-up took %v with the memo, %v without", memod.Clock.Now(), plain.Clock.Now())
	}
	image := func(sys *hybrid.System) []byte {
		buf := make([]byte, sys.CacheSSD.Size())
		if _, err := sys.CacheSSD.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(image(plain), image(memod)) {
		t.Fatal("the cache SSD holds different bytes after warm-up with the memo")
	}
}
