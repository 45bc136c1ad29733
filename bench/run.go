package main

import (
	"fmt"
	"path/filepath"
	"sort"

	"hybridstore/internal/index"
	"hybridstore/internal/workload"
)

// minRounds is the fewest identical rounds a timed run makes, so that every
// host metric is a median and set-up is timed several times.
const minRounds = 3

// report is the outcome of one run. Metrics holds the declared metrics of
// the requested kind (end-to-end or per-layer). Exact holds every simulated
// number and exact count of the run: it must not change under a
// host-performance change, and `compare` checks that it did not.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Rounds    int                    `json:"rounds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Exact     map[string]float64     `json:"exact"`
	// HostRounds keeps each timed round's host measurements, the samples
	// behind the medians in Metrics: times at reference speed, the speed
	// factor that scaled them, and the stream window as the clock read it.
	HostRounds map[string][]float64 `json:"host_rounds,omitempty"`
	// Problems says why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runOptions are the knobs tests turn; the command line always uses
// defaultOptions.
type runOptions struct {
	minRounds int
	calReps   int    // kernel repetitions per calibration chunk
	outDir    string // where spans.ndjson goes; empty writes none
}

var defaultOptions = runOptions{minRounds: minRounds, calReps: chunkReps, outDir: filepath.Join("bench", "out")}

// run executes one benchmark run of w.
func run(w workloadSpec, seed uint64, seconds float64, trace bool, opt runOptions) (report, error) {
	rep := report{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, Exact: map[string]float64{}}
	var values map[string]float64
	var defs []metricDef
	var err error
	if trace {
		defs = perLayer()
		values, err = runTraced(w, seed, opt, &rep)
	} else {
		defs = endToEnd
		values, err = runTimed(w, seed, seconds, opt, &rep)
	}
	if err != nil {
		return rep, err
	}
	var problems []string
	rep.Metrics, problems = emit(defs, values)
	for _, p := range problems {
		rep.fail("%s", p)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// runTimed makes identical rounds on the uninstrumented system until their
// windows add up to the requested seconds, and reports the end-to-end
// metrics: host ones as medians over the rounds, each round's times scaled
// to reference speed by the calibration chunks interleaved with it;
// simulated ones once (every round must reproduce them exactly).
func runTimed(w workloadSpec, seed uint64, seconds float64, opt runOptions, rep *report) (map[string]float64, error) {
	elapsedNS := make([]int64, w.Measure)
	var setups, walls, lives, basketWalls, speeds, rawWalls []float64
	var firstSim simTotals
	var firstOutputCRC uint32
	var measuredNS int64
	cal, basketCal := newCalibrator(opt.calReps), newCalibrator(basketChunkScale*opt.calReps)
	for r := 0; r < opt.minRounds || secs(measuredNS) < seconds; r++ {
		p, err := runPass(w, seed, assembleTimed, elapsedNS, nil, cal)
		if err != nil {
			return nil, err
		}
		rep.Rounds++
		rep.Attempted += w.Measure
		rep.Failed += p.win.errors
		setup, roundNS, live := secs(p.setupNS)*p.setupSpeed, p.win.wallNS, p.liveMB
		if r == 0 {
			firstSim = p.win.sim
			recordSimExact(rep.Exact, p.win.sim, elapsedNS)
			if err := oracleCheck(w, seed, p, rep); err != nil {
				return nil, err
			}
		} else if p.win.sim != firstSim {
			rep.fail("round %d simulated totals differ from round 0", r)
		}

		if len(w.Experiments) > 0 {
			b, err := runBasket(w, basketCal)
			if err != nil {
				return nil, err
			}
			checkBasket(b, w, rep)
			if r == 0 {
				firstOutputCRC = b.outputCRC
				rep.Exact["experiments.output_crc32"] = float64(b.outputCRC)
			} else if b.outputCRC != firstOutputCRC {
				rep.fail("round %d basket output differs from round 0", r)
			}
			setup += b.setupNS / 1e9
			roundNS += b.rawWallNS
			live = b.liveMB
			basketWalls = append(basketWalls, b.wallNS/1e9)
		}
		setups = append(setups, setup)
		walls = append(walls, secs(p.win.wallNS)*p.win.speed)
		lives = append(lives, live)
		speeds = append(speeds, p.win.speed)
		rawWalls = append(rawWalls, secs(p.win.wallNS))
		measuredNS += roundNS
	}

	rep.HostRounds = map[string][]float64{
		"setup_s": setups, "stream_wall_s": walls, "host_live_mb": lives,
		"host_speed": speeds, "stream_wall_raw_s": rawWalls,
	}
	streamWall := median(walls)
	wall := streamWall
	if len(basketWalls) > 0 {
		rep.HostRounds["basket_wall_s"] = basketWalls
		wall = median(basketWalls)
	}
	return map[string]float64{
		"setup_s":              median(setups),
		"host_qps":             float64(w.Measure) / streamWall,
		"wall_s":               wall,
		"host_live_mb":         median(lives),
		"sim_resp_mean_us":     rep.Exact["sim_resp_mean_us"],
		"ssd_pages_programmed": rep.Exact["ssd_pages_programmed"],
	}, nil
}

// recordSimExact writes the simulated outcome of a window into exact.
func recordSimExact(exact map[string]float64, sim simTotals, elapsedNS []int64) {
	sorted := append([]int64(nil), elapsedNS...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	exact["sim_resp_samples"] = float64(len(sorted))
	exact["sim_resp_mean_us"] = float64(sim.ElapsedSum.Nanoseconds()) / 1e3 / float64(len(sorted))
	exact["sim_resp_p50_us"] = float64(quantile(sorted, 0.50)) / 1e3
	exact["sim_resp_p99_us"] = float64(quantile(sorted, 0.99)) / 1e3
	exact["ssd_erases"] = float64(sim.End.Wear.TotalErases - sim.Start.Wear.TotalErases)
	exact["ssd_pages_programmed"] = float64(sim.End.Wear.HostPagesWritten + sim.End.Wear.GCPageCopies)
	exact["sim_clock_end_us"] = float64(sim.End.Clock.Nanoseconds()) / 1e3
	exact["engine.result_crc32"] = float64(sim.ResultCRC)
	exact["core.result_hits_mem"] = float64(sim.Core.ResultHitsMem)
	exact["core.result_hits_ssd"] = float64(sim.Core.ResultHitsSSD)
	exact["core.result_misses"] = float64(sim.Core.ResultMisses)
	exact["core.list_bytes_from_hdd"] = float64(sim.Core.ListBytesFromHDD)
	exact["core.bytes_to_ssd"] = float64(sim.Core.ResultBytesToSSD + sim.Core.ListBytesToSSD)
	exact["flashsim.read_calls"] = float64(sim.End.SSD.Reads - sim.Start.SSD.Reads)
	exact["flashsim.write_calls"] = float64(sim.End.SSD.Writes - sim.Start.SSD.Writes)
	exact["disksim.read_calls"] = float64(sim.End.HDD.Reads - sim.Start.HDD.Reads)
}

// oracleCheck re-runs the pass's sampled queries on an uncached system;
// every difference is a failed operation.
func oracleCheck(w workloadSpec, seed uint64, p streamPass, rep *report) error {
	mismatches, err := checkOracle(w, seed, p.img, p.win.samples)
	if err != nil {
		return err
	}
	rep.Attempted += len(p.win.samples)
	if mismatches > 0 {
		rep.Failed += mismatches
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d sampled results differ from the uncached oracle", mismatches, len(p.win.samples)))
	}
	return nil
}

// runTraced makes one timed round (with per-query host latency) and one
// round on the traced stack, checks that both simulated the same thing, and
// reports the per-layer metrics, host times at reference speed.
func runTraced(w workloadSpec, seed uint64, opt runOptions, rep *report) (map[string]float64, error) {
	elapsedNS := make([]int64, w.Measure)
	hostLat := make([]int64, w.Measure)
	cal := newCalibrator(opt.calReps)
	timed, err := runPass(w, seed, assembleTimed, elapsedNS, hostLat, cal)
	if err != nil {
		return nil, err
	}
	rep.Rounds = 2
	rep.Attempted += w.Measure
	rep.Failed += timed.win.errors
	recordSimExact(rep.Exact, timed.win.sim, elapsedNS)
	if err := oracleCheck(w, seed, timed, rep); err != nil {
		return nil, err
	}
	traced, err := runPass(w, seed, assembleTraced, elapsedNS, nil, cal)
	if err != nil {
		return nil, err
	}
	ts := traced.traced
	decodeNS, err := decodeNSPerPosting(ts.ix, cal)
	if err != nil {
		return nil, err
	}
	// Host times below are at reference speed: each pass's numbers by the
	// speed its own interleaved calibration chunks measured.
	timedSpeed, tracedSpeed := timed.win.speed, traced.win.speed

	rep.Attempted += w.Measure
	rep.Failed += traced.win.errors
	if traced.win.sim != timed.win.sim {
		rep.fail("traced stack's simulated totals differ from the timed pass: bench/traced.go has drifted from hybrid.New")
	}
	if err := oracleCheck(w, seed, traced, rep); err != nil {
		return nil, err
	}
	tr := ts.tr
	sim := traced.win.sim
	ssd0, ssd1 := sim.Start.SSD, sim.End.SSD
	hdd0, hdd1 := sim.Start.HDD, sim.End.HDD
	if tr.calls[spanSSDRead] != ssd1.Reads-ssd0.Reads || tr.calls[spanSSDWrite] != ssd1.Writes-ssd0.Writes ||
		tr.calls[spanSSDTrim] != ssd1.Trims-ssd0.Trims || tr.calls[spanHDDRead] != hdd1.Reads-hdd0.Reads ||
		tr.calls[spanSearch] != int64(w.Measure) || ts.counts.executes != sim.Core.ResultMisses {
		rep.fail("span counts disagree with the devices' own counters")
	}
	if opt.outDir != "" {
		if err := tr.writeSpans(filepath.Join(opt.outDir, w.Name+".spans.ndjson")); err != nil {
			return nil, err
		}
	}

	n := float64(w.Measure)
	window := float64(tr.totalNS[spanSearch])
	share := func(layer string) float64 { return float64(tr.layerSelfNS(layer)) / window }
	selfNS := func(k spanKind) float64 { return float64(tr.selfNS[k]) * tracedSpeed }
	selfPerCall := func(k spanKind) float64 { return ratio(selfNS(k), float64(tr.calls[k])) }
	sort.Slice(hostLat, func(i, j int) bool { return hostLat[i] < hostLat[j] })
	c, wear0, wear1 := sim.Core, sim.Start.Wear, sim.End.Wear
	hostPages := float64(wear1.HostPagesWritten - wear0.HostPagesWritten)
	gcCopies := float64(wear1.GCPageCopies - wear0.GCPageCopies)
	listBytes := float64(c.ListBytesFromMem + c.ListBytesFromSSD + c.ListBytesFromHDD)

	v := map[string]float64{
		"hybrid.search_p50_us":      float64(quantile(hostLat, 0.50)) / 1e3 * timedSpeed,
		"hybrid.search_p99_us":      float64(quantile(hostLat, 0.99)) / 1e3 * timedSpeed,
		"hybrid.alloc_kb_per_query": float64(timed.mem.allocBytes) / 1024 / n,
		"hybrid.allocs_per_query":   float64(timed.mem.mallocs) / n,
		"hybrid.gc_cpu_share":       timed.mem.gcCPUShare,
		"hybrid.peak_rss_mb":        peakRSSMB(),
		"hybrid.self_share":         share("hybrid"),
		"hybrid.trace_overhead_pct": 100 * (float64(traced.win.wallNS)*tracedSpeed/(float64(timed.win.wallNS)*timedSpeed) - 1),

		"engine.self_share":                share("engine"),
		"engine.self_us_per_execute":       selfPerCall(spanExecute) / 1e3,
		"engine.self_ns_per_posting":       ratio(selfNS(spanExecute), float64(ts.counts.postings)),
		"engine.result_codec_us_per_query": (selfNS(spanEncodeResult) + selfNS(spanDecodeResult)) / 1e3 / n,
		"engine.execute_calls":             float64(ts.counts.executes),
		"engine.postings_scored":           float64(ts.counts.postings),
		"engine.list_bytes_read":           float64(ts.counts.listBytes),
		"engine.early_term_share":          ratio(float64(ts.counts.termsTerminated), float64(ts.counts.terms)),
		"engine.result_crc32":              float64(sim.ResultCRC),

		"index.build_image_s":         secs(traced.buildNS) * traced.setupSpeed,
		"index.stamp_s":               secs(ts.stampNS) * traced.setupSpeed,
		"index.image_mb":              traced.imageMB,
		"index.decode_ns_per_posting": decodeNS,

		"core.self_share":             share("core"),
		"core.get_result_ns_per_call": selfPerCall(spanGetResult),
		"core.put_result_ns_per_call": selfPerCall(spanPutResult),
		"core.read_list_ns_per_call":  selfPerCall(spanReadList),
		"core.read_list_calls":        float64(tr.calls[spanReadList]),
		"core.result_hit_ratio":       c.ResultHitRatio(),
		"core.result_hit_l2_share":    ratio(float64(c.ResultHitsSSD), float64(c.ResultHitsMem+c.ResultHitsSSD)),
		"core.list_hit_ratio":         c.ListHitRatio(),
		"core.list_bytes_ssd_share":   ratio(float64(c.ListBytesFromSSD), listBytes),
		"core.list_bytes_hdd_share":   ratio(float64(c.ListBytesFromHDD), listBytes),
		"core.l1_evictions":           float64(c.L1ResultEvictions + c.L1ListEvictions),
		"core.l2_evictions":           float64(c.L2ResultEvictions + c.L2ListEvictions),
		"core.bytes_to_ssd":           float64(c.ResultBytesToSSD + c.ListBytesToSSD),
		"core.lists_discarded_share":  ratio(float64(c.ListsDiscarded), float64(c.L1ListEvictions)),
		"core.ssd_errors":             float64(c.SSDReadErrors + c.SSDWriteErrors + c.SSDTrimErrors),

		"flashsim.self_share":        share("flashsim"),
		"flashsim.host_ns_per_read":  selfPerCall(spanSSDRead),
		"flashsim.host_ns_per_write": selfPerCall(spanSSDWrite),
		"flashsim.read_calls":        float64(tr.calls[spanSSDRead]),
		"flashsim.write_calls":       float64(tr.calls[spanSSDWrite]),
		"flashsim.trim_calls":        float64(tr.calls[spanSSDTrim]),
		"flashsim.pages_written":     hostPages,
		"flashsim.gc_page_copies":    gcCopies,
		"flashsim.write_amp":         ratio(hostPages+gcCopies, hostPages),
		"flashsim.block_erases":      float64(wear1.TotalErases - wear0.TotalErases),
		"flashsim.max_block_erases":  float64(wear1.MaxBlockErases),
		"flashsim.sim_busy_s":        (ssd1.TotalTime - ssd0.TotalTime).Seconds(),

		"disksim.self_share":       share("disksim"),
		"disksim.host_ns_per_read": selfPerCall(spanHDDRead),
		"disksim.read_calls":       float64(tr.calls[spanHDDRead]),
		"disksim.bytes_read":       float64(hdd1.BytesRead - hdd0.BytesRead),
		"disksim.sequential_share": ratio(float64(sim.End.HDDSeqs-sim.Start.HDDSeqs), float64(hdd1.Operations-hdd0.Operations)),
		"disksim.sim_ms_per_read":  ratio(float64((hdd1.ReadTime-hdd0.ReadTime).Microseconds())/1e3, float64(hdd1.Reads-hdd0.Reads)),

		"experiments.index_builds_in_window": 0,
		"experiments.output_crc32":           0,
	}
	for _, id := range basketIDs {
		v[expShareName(id)] = 0
	}
	rep.HostRounds = map[string][]float64{"host_speed": {timedSpeed, tracedSpeed}}

	if len(w.Experiments) > 0 {
		b, err := runBasket(w, newCalibrator(basketChunkScale*opt.calReps))
		if err != nil {
			return nil, err
		}
		checkBasket(b, w, rep)
		rep.Exact["experiments.output_crc32"] = float64(b.outputCRC)
		v["experiments.index_builds_in_window"] = float64(b.buildsInWindow)
		v["experiments.output_crc32"] = float64(b.outputCRC)
		for i, id := range w.Experiments {
			v[expShareName(id)] = b.expNS[i] / b.wallNS
		}
	}
	return v, nil
}

// checkBasket counts the basket's operations and its self-check into rep.
func checkBasket(b basketPass, w workloadSpec, rep *report) {
	rep.Attempted += len(w.Experiments)
	rep.Failed += b.errors
	if b.buildsInWindow != 0 {
		rep.fail("%d index builds inside the basket window: add the experiment that builds them to SetupExperiments", b.buildsInWindow)
	}
}

// decodeNSPerPosting times index.BlockCursor over a fixed sample of 64
// terms spread across the vocabulary, in the index's own codec: the median
// of 5 passes, in host nanoseconds per posting at reference speed (a
// calibration chunk runs before and after every pass).
func decodeNSPerPosting(ix *index.Index, cal *calibrator) (float64, error) {
	const sampleTerms, passes = 64, 5
	type list struct {
		buf    []byte
		blocks []index.BlockRef
	}
	lists := make([]list, 0, sampleTerms)
	for i := 0; i < sampleTerms; i++ {
		t := workload.TermID(i * ix.NumTerms() / sampleTerms)
		l := list{buf: make([]byte, ix.ListBytes(t)), blocks: ix.ListBlocks(t)}
		if err := ix.ReadListRange(t, 0, l.buf); err != nil {
			return 0, fmt.Errorf("decode sample: term %d: %w", t, err)
		}
		lists = append(lists, l)
	}
	codec := ix.Codec()
	var cur index.BlockCursor
	var perPosting []float64
	before := cal.chunk()
	for pass := 0; pass < passes; pass++ {
		postings := 0
		t0 := hostNS()
		for _, l := range lists {
			for k, b := range l.blocks {
				end := len(l.buf)
				if k+1 < len(l.blocks) {
					end = int(l.blocks[k+1].Off)
				}
				cur.Reset(codec, l.buf[b.Off:end], int(b.Count))
				for {
					if _, ok := cur.Next(); !ok {
						break
					}
					postings++
				}
				if err := cur.Err(); err != nil {
					return 0, fmt.Errorf("decode sample: %w", err)
				}
			}
		}
		ns := float64(hostNS() - t0)
		after := cal.chunk()
		perPosting = append(perPosting, ratio(ns*cal.speed(2, before+after), float64(postings)))
		before = after
	}
	return median(perPosting), nil
}

// ratio is a/b, or 0 when nothing happened to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
