package hybrid

import (
	"sort"

	"hybridstore/internal/engine"
	"hybridstore/internal/workload"
)

// WarmupStats reports what static warm-up pinned.
type WarmupStats struct {
	SampleQueries int
	PinnedResults int
	PinnedLists   int
}

// WarmupStatic performs the CBSLRU query-log analysis of §VI-C2: it samples
// the query log offline (a fresh copy, leaving the live stream untouched),
// ranks queries by repetition frequency and terms by efficiency value, and
// pins the most valuable result entries and list prefixes into the SSD's
// static partitions.
//
// Pinned results are computed with an uncached engine so the dynamic
// caches stay cold; the simulated time spent is setup cost, charged on the
// clock like any other work. That engine lives only for this call, so its
// score accumulator (4 B per document) is not held for the system's
// lifetime beside s.Engine's.
//
// It is a no-op (returning zero counts) for policies without a static
// partition (everything but CBSLRU today).
func (s *System) WarmupStatic(sampleQueries int) (WarmupStats, error) {
	ws := WarmupStats{SampleQueries: sampleQueries}
	if s.Manager == nil || !s.Manager.UsesStaticPartition() {
		return ws, nil
	}

	sample := workload.NewQueryLog(s.cfg.QueryLog)
	queryCount := make(map[uint64]int64)
	termCount := make(map[workload.TermID]int64)
	for i := 0; i < sampleQueries; i++ {
		q := sample.Next()
		queryCount[q.ID]++
		for _, t := range q.Terms {
			termCount[t]++
		}
	}

	// Pin the hottest queries' results until the static result budget
	// rejects further entries.
	qids := make([]uint64, 0, len(queryCount))
	for qid := range queryCount {
		qids = append(qids, qid)
	}
	sort.Slice(qids, func(i, j int) bool {
		if queryCount[qids[i]] != queryCount[qids[j]] {
			return queryCount[qids[i]] > queryCount[qids[j]]
		}
		return qids[i] < qids[j]
	})
	uncached := engine.New(s.baseline, s.engCfg)
	for _, qid := range qids {
		if queryCount[qid] < 2 {
			break // singletons are not worth pinning
		}
		res, stats, err := uncached.Execute(sample.QueryByID(qid))
		if err != nil {
			return ws, err
		}
		// These executions double as utilization measurements, refining
		// the PU estimates the list pins below are sized with.
		for _, ts := range stats.Terms {
			s.Manager.RecordUtilization(ts.Term, ts.Utilization)
		}
		if !s.Manager.PinResult(qid, s.encodeEntry(res)) {
			break
		}
		ws.PinnedResults++
	}

	// Pin the highest-efficiency lists. EV estimates use the sampled
	// frequency and the Formula 1 size the pin would occupy.
	terms := make([]workload.TermID, 0, len(termCount))
	for t := range termCount {
		terms = append(terms, t)
	}
	blockBytes := s.Manager.Config().BlockBytes
	var puModel *workload.UtilizationModel
	if s.cfg.UseModelPU {
		puModel = workload.NewUtilizationModel(s.cfg.Collection)
	}
	evOf := func(t workload.TermID) float64 {
		pu := 1.0
		if puModel != nil {
			pu = puModel.PU(t)
		}
		si := int64(float64(s.Index.ListBytes(t)) * pu)
		sc := (si + blockBytes - 1) / blockBytes
		if sc < 1 {
			sc = 1
		}
		return float64(termCount[t]) / float64(sc)
	}
	sort.Slice(terms, func(i, j int) bool {
		ei, ej := evOf(terms[i]), evOf(terms[j])
		if ei != ej {
			return ei > ej
		}
		return terms[i] < terms[j]
	})
	misses := 0
	for _, t := range terms {
		if s.Manager.PinList(t) {
			ws.PinnedLists++
			misses = 0
		} else {
			misses++
			if misses >= 8 {
				break // budget effectively exhausted
			}
		}
	}
	return ws, nil
}
