package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// Fig17PolicyPerformance regenerates Fig 17: mean response time and
// throughput of LRU, CBLRU and CBSLRU on the two-level hierarchy over
// collection size, with the paper's headline relative improvements. Each
// (docs, policy) pair is one independent point on the worker pool.
func Fig17PolicyPerformance(w io.Writer, sc Scale) error {
	policies := []core.Policy{core.PolicyLRU, core.PolicyCBLRU, core.PolicyCBSLRU}
	docs := sc.docSweep()
	var cfgs []hybrid.Config
	for _, d := range docs {
		for _, policy := range policies {
			cfgs = append(cfgs, sc.config(d, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(policy)))
		}
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	respTab := metrics.NewTable("docs", "LRU_ms", "CBLRU_ms", "CBSLRU_ms")
	thrTab := metrics.NewTable("docs", "LRU_qps", "CBLRU_qps", "CBSLRU_qps")
	var respSum, thrSum [3]float64
	for di, d := range docs {
		var resp, thr [3]float64
		for i, p := range pts[di*len(policies) : (di+1)*len(policies)] {
			resp[i], thr[i] = p.respMS(), p.run.Throughput()
			respSum[i] += resp[i]
			thrSum[i] += thr[i]
		}
		respTab.AddRow(d, resp[0], resp[1], resp[2])
		thrTab.AddRow(d, fmtQPS(thr[0]), fmtQPS(thr[1]), fmtQPS(thr[2]))
	}
	fmt.Fprintln(w, "# Fig 17(a) — mean response time (ms)")
	io.WriteString(w, respTab.String())
	fmt.Fprintln(w, "\n# Fig 17(b) — throughput (queries/s)")
	io.WriteString(w, thrTab.String())

	if len(docs) > 0 && respSum[0] > 0 && thrSum[0] > 0 {
		fmt.Fprintf(w, "response time vs LRU: CBLRU %+.1f%%, CBSLRU %+.1f%% (paper: -35.27%%, -41.05%%)\n",
			100*(respSum[1]-respSum[0])/respSum[0], 100*(respSum[2]-respSum[0])/respSum[0])
		fmt.Fprintf(w, "throughput vs LRU:    CBLRU %+.1f%%, CBSLRU %+.1f%% (paper: +55.29%%, +70.47%%)\n",
			100*(thrSum[1]-thrSum[0])/thrSum[0], 100*(thrSum[2]-thrSum[0])/thrSum[0])
	}
	return nil
}
