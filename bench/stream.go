package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/disksim"
	"hybridstore/internal/engine"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/index"
	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
	"hybridstore/internal/workload"
)

// Oracle sampling strides: every executedStride-th executed query and every
// hitStride-th result hit of a window is re-run on an uncached system.
const (
	executedStride = 64
	hitStride      = 1024
)

// searchFunc serves one query: hybrid.System.Search in the timed pass, the
// benchmark's own replay of it in the traced pass.
type searchFunc func(q workload.Query) (*engine.Result, hybrid.SearchInfo, error)

// deviceSnapshot is the simulated state of the devices at one instant.
// Snapshots are comparable: two stacks that simulate the same thing produce
// equal snapshots.
type deviceSnapshot struct {
	Clock   time.Duration
	SSD     storage.DeviceStats
	Wear    flashsim.WearStats
	HDD     storage.DeviceStats
	HDDSeqs int64
}

func snapshotDevices(clock *simclock.Clock, ssd *flashsim.SSD, hdd *disksim.HDD) deviceSnapshot {
	return deviceSnapshot{
		Clock:   clock.Now(),
		SSD:     ssd.Stats(),
		Wear:    ssd.Wear(),
		HDD:     hdd.Stats(),
		HDDSeqs: hdd.SequentialHits(),
	}
}

// simTotals is everything simulated that a window produces. It is
// comparable with ==: rounds of one run, and the timed and traced stacks,
// must agree on it exactly.
type simTotals struct {
	Start, End deviceSnapshot
	Core       core.Stats
	ElapsedSum time.Duration
	BytesRead  int64
	ResultCRC  uint32
}

// sampledResult is one window result kept for the oracle.
type sampledResult struct {
	query workload.Query
	res   *engine.Result
}

// window is the outcome of one measured window. wallNS excludes the
// calibration chunks interleaved with it; speed is the host speed they
// measured, so wallNS × speed is the window at reference speed.
type window struct {
	wallNS  int64
	speed   float64
	sim     simTotals
	errors  int
	samples []sampledResult
}

// runWindow serves queries through search, with windowChunks calibration
// chunks spread evenly between them. elapsedNS receives each query's
// simulated response time; hostNSOut, when non-nil, each query's host
// latency (two extra clock reads per query, so only the traced run asks
// for it).
func runWindow(search searchFunc, queries []workload.Query, elapsedNS, hostNSOut []int64, cal *calibrator) window {
	var w window
	var crcBuf []byte
	crc := uint32(0)
	executed, hits := 0, 0
	stride := max(len(queries)/windowChunks, 1)
	chunks, calNS := 0, int64(0)
	start := hostNS()
	for i, q := range queries {
		if i%stride == 0 {
			calNS += cal.chunk()
			chunks++
		}
		var t0 int64
		if hostNSOut != nil {
			t0 = hostNS()
		}
		res, info, err := search(q)
		if hostNSOut != nil {
			hostNSOut[i] = hostNS() - t0
		}
		elapsedNS[i] = int64(info.Elapsed)
		if err != nil {
			w.errors++
			continue
		}
		w.sim.ElapsedSum += info.Elapsed
		w.sim.BytesRead += info.BytesRead

		crcBuf = crcBuf[:0]
		for _, d := range res.Docs {
			crcBuf = binary.LittleEndian.AppendUint32(crcBuf, d.Doc)
			crcBuf = binary.LittleEndian.AppendUint32(crcBuf, math.Float32bits(d.Score))
		}
		crc = crc32.Update(crc, crc32.IEEETable, crcBuf)

		if info.Cached {
			if hits%hitStride == 0 {
				w.samples = append(w.samples, sampledResult{q, res})
			}
			hits++
		} else {
			if executed%executedStride == 0 {
				w.samples = append(w.samples, sampledResult{q, res})
			}
			executed++
		}
	}
	w.wallNS = hostNS() - start - calNS
	w.speed = cal.speed(chunks, calNS)
	w.sim.ResultCRC = crc
	return w
}

// makeQueries draws n queries from the log up front, so internal/workload
// does no work inside a window.
func makeQueries(log *workload.QueryLog, n int) []workload.Query {
	qs := make([]workload.Query, n)
	for i := range qs {
		qs[i] = log.Next()
	}
	return qs
}

// stack is one assembled system as a pass needs it: how to search, and
// where to read the simulated totals.
type stack struct {
	search  searchFunc
	clock   *simclock.Clock
	ssd     *flashsim.SSD
	hdd     *disksim.HDD
	manager *core.Manager
	// traced is nil on the timed stack.
	traced *tracedStack
}

// assembleTimed is the untouched public facade: hybrid.New and
// System.Search, no instrumentation.
func assembleTimed(cfg hybrid.Config) (stack, error) {
	sys, err := hybrid.New(cfg)
	if err != nil {
		return stack{}, err
	}
	ssd, ok := sys.CacheSSD.(*flashsim.SSD)
	if !ok {
		return stack{}, fmt.Errorf("cache device is %T, want the page-mapped *flashsim.SSD", sys.CacheSSD)
	}
	return stack{search: sys.Search, clock: sys.Clock, ssd: ssd, hdd: sys.HDD, manager: sys.Manager}, nil
}

// streamPass is one round of a stream: set-up, then the measured window.
// setupSpeed is the host speed measured during the warm-up, the bulk of
// set-up.
type streamPass struct {
	setupNS    int64
	setupSpeed float64
	buildNS    int64 // index.BuildImage, part of set-up
	imageMB    float64
	liveMB     float64
	win        window
	// mem is the runtime's view of the window.
	mem memDelta
	// img lets the caller stamp an oracle from the same bytes; traced is
	// the traced stack with its tracer and counters, nil after a timed pass.
	img    *index.Image
	traced *tracedStack
}

// runPass runs one round: build the image, assemble the stack, warm it,
// then serve the window. Spans, if the stack has a tracer, are on for the
// window only.
func runPass(w workloadSpec, seed uint64, assemble func(hybrid.Config) (stack, error), elapsedNS, hostNSOut []int64, cal *calibrator) (streamPass, error) {
	var p streamPass
	t0 := hostNS()
	cfg, err := w.systemConfig(seed)
	if err != nil {
		return p, err
	}
	p.img, err = index.BuildImage(cfg.Collection, cfg.Codec)
	if err != nil {
		return p, err
	}
	p.buildNS = hostNS() - t0
	p.imageMB = float64(p.img.Bytes()) / (1 << 20)
	cfg.IndexImage = p.img
	st, err := assemble(cfg)
	if err != nil {
		return p, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	p.traced = st.traced
	log := workload.NewQueryLog(cfg.QueryLog)
	warm := makeQueries(log, w.Warm)
	queries := makeQueries(log, w.Measure)
	warmStart := hostNS()
	warmed := runWindow(st.search, warm, make([]int64, len(warm)), nil, cal)
	if warmed.errors > 0 {
		return p, fmt.Errorf("workload %s: %d warm-up queries failed", w.Name, warmed.errors)
	}
	st.manager.ResetStats()
	startSnap := snapshotDevices(st.clock, st.ssd, st.hdd)
	memStart := readMem()
	p.setupNS = warmStart - t0 + warmed.wallNS
	p.setupSpeed = warmed.speed

	if st.traced != nil {
		st.traced.tr.on = true
	}
	p.win = runWindow(st.search, queries, elapsedNS[:len(queries)], hostNSOut, cal)
	if st.traced != nil {
		st.traced.tr.on = false
	}

	p.mem = readMem().since(memStart)
	p.win.sim.Start = startSnap
	p.win.sim.End = snapshotDevices(st.clock, st.ssd, st.hdd)
	p.win.sim.Core = st.manager.Stats()
	p.liveMB = liveHeapMB()
	runtime.KeepAlive(st)
	return p, nil
}

// liveHeapMB is HeapAlloc after a forced collection: what the caller still
// holds, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checkOracle re-runs every sampled query on an independent uncached system
// stamped from the same image and returns how many differ in ranked docs or
// scores (a query that fails to run counts as differing).
func checkOracle(w workloadSpec, seed uint64, img *index.Image, samples []sampledResult) (int, error) {
	cfg, err := w.systemConfig(seed)
	if err != nil {
		return 0, err
	}
	cfg.Mode = hybrid.CacheNone
	cfg.IndexImage = img
	oracle, err := hybrid.New(cfg)
	if err != nil {
		return 0, err
	}
	mismatches := 0
	for _, s := range samples {
		want, _, err := oracle.Search(s.query)
		if err != nil || !sameRanking(want, s.res) {
			mismatches++
		}
	}
	return mismatches, nil
}

func sameRanking(a, b *engine.Result) bool {
	if len(a.Docs) != len(b.Docs) {
		return false
	}
	for i := range a.Docs {
		if a.Docs[i].Doc != b.Docs[i].Doc ||
			math.Float32bits(a.Docs[i].Score) != math.Float32bits(b.Docs[i].Score) {
			return false
		}
	}
	return true
}
