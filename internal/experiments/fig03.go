package experiments

import (
	"fmt"
	"io"
	"sort"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/workload"
)

// Fig03Distributions regenerates Fig 3: (a) the inverted-list utilization
// rate distribution measured from real query executions, and (b) the term
// access frequency distribution of the query log — both as rank series,
// like the paper's plots over ranked terms.
func Fig03Distributions(w io.Writer, sc Scale) error {
	// (a) measured utilization: execute queries uncached and average the
	// fraction of each touched list the engine actually read.
	sys, err := build(sc.config(sc.BaseDocs/2, hybrid.CacheNone, hybrid.IndexOnHDD, core.Config{}))
	if err != nil {
		return err
	}
	utilSum := make(map[workload.TermID]float64)
	utilN := make(map[workload.TermID]int)
	const sample = 600
	for i := 0; i < sample; i++ {
		q := sys.Log.Next()
		_, stats, err := sys.Engine.Execute(q)
		if err != nil {
			return err
		}
		for _, ts := range stats.Terms {
			utilSum[ts.Term] += ts.Utilization
			utilN[ts.Term]++
		}
	}
	utils := make([]float64, 0, len(utilSum))
	for _, t := range sortedKeys(utilSum) {
		utils = append(utils, utilSum[t]/float64(utilN[t]))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(utils)))

	fmt.Fprintln(w, "# Fig 3(a) — inverted list utilization rate distribution (ranked terms)")
	tab := metrics.NewTable("rank_pct", "utilization_%")
	for _, pct := range []int{0, 10, 25, 50, 75, 90, 99} {
		idx := pct * (len(utils) - 1) / 100
		tab.AddRow(pct, fmt.Sprintf("%.1f", 100*utils[idx]))
	}
	io.WriteString(w, tab.String())
	var mean float64
	for _, u := range utils {
		mean += u
	}
	mean /= float64(len(utils))
	fmt.Fprintf(w, "terms measured: %d, mean utilization %.1f%% (paper: most lists partially used)\n\n",
		len(utils), 100*mean)

	// (b) term access frequency over the log.
	fmt.Fprintln(w, "# Fig 3(b) — term access frequency distribution (ranked terms)")
	log := workload.NewQueryLog(sc.log())
	counts := log.TermFrequencies(20000)
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	tb := metrics.NewTable("term_rank", "access_count")
	for _, rank := range []int{0, 1, 5, 10, 50, 100, 500, 1000} {
		if rank < len(counts) {
			tb.AddRow(rank, counts[rank])
		}
	}
	io.WriteString(w, tb.String())
	fmt.Fprintln(w, "(Zipf-like: a small fraction of terms receives most accesses)")
	return nil
}
