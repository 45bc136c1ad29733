package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// Fig19InsideSSD regenerates Fig 19: cumulative block erasure count (a)
// and flash average access time (b) as the query count grows, for the
// three policies. Each policy runs one system from cold with checkpoints —
// exactly the paper's 10k..100k query-count sweep, scaled.
func Fig19InsideSSD(w io.Writer, sc Scale) error {
	checkpoints := 10
	step := (sc.WarmQueries + sc.MeasureQueries) / checkpoints
	if step < 100 {
		step = 100
	}

	type series struct {
		erases []int64
		avgUs  []float64
	}
	policies := []core.Policy{core.PolicyLRU, core.PolicyCBLRU, core.PolicyCBSLRU}
	// One point per policy: each runs its own system from cold through all
	// checkpoints (the checkpoints are a time series over one system, so
	// they stay sequential inside the point).
	byPolicy := make([]*series, len(policies))
	err := sc.forPoints(len(policies), func(p int) error {
		policy := policies[p]
		sys, err := build(sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(policy)))
		if err != nil {
			return err
		}
		if policy == core.PolicyCBSLRU {
			if _, err := sys.WarmupStatic(2 * sc.WarmQueries); err != nil {
				return err
			}
		}
		s := &series{}
		for c := 0; c < checkpoints; c++ {
			if _, err := sys.Run(step); err != nil {
				return err
			}
			s.erases = append(s.erases, sys.CacheSSD.Wear().TotalErases)
			s.avgUs = append(s.avgUs, float64(sys.CacheSSD.Stats().AvgAccessTime().Nanoseconds())/1000)
		}
		byPolicy[p] = s
		return nil
	})
	if err != nil {
		return err
	}
	results := make(map[core.Policy]*series)
	for p, policy := range policies {
		results[policy] = byPolicy[p]
	}

	fmt.Fprintln(w, "# Fig 19(a) — cumulative block erasure count")
	eraseTab := metrics.NewTable("queries", "LRU", "CBLRU", "CBSLRU")
	for c := 0; c < checkpoints; c++ {
		eraseTab.AddRow((c+1)*step,
			results[core.PolicyLRU].erases[c],
			results[core.PolicyCBLRU].erases[c],
			results[core.PolicyCBSLRU].erases[c])
	}
	io.WriteString(w, eraseTab.String())

	last := checkpoints - 1
	lruE := float64(results[core.PolicyLRU].erases[last])
	if lruE > 0 {
		fmt.Fprintf(w, "erase reduction vs LRU: CBLRU %.1f%%, CBSLRU %.1f%% (paper: 59.92%%, 71.52%%)\n",
			100*(lruE-float64(results[core.PolicyCBLRU].erases[last]))/lruE,
			100*(lruE-float64(results[core.PolicyCBSLRU].erases[last]))/lruE)
	}

	fmt.Fprintln(w, "\n# Fig 19(b) — flash average access time (µs, cumulative)")
	avgTab := metrics.NewTable("queries", "LRU", "CBLRU", "CBSLRU")
	for c := 0; c < checkpoints; c++ {
		avgTab.AddRow((c+1)*step,
			results[core.PolicyLRU].avgUs[c],
			results[core.PolicyCBLRU].avgUs[c],
			results[core.PolicyCBSLRU].avgUs[c])
	}
	io.WriteString(w, avgTab.String())
	lruA := results[core.PolicyLRU].avgUs[last]
	if lruA > 0 {
		fmt.Fprintf(w, "access-time reduction vs LRU: CBLRU %.1f%%, CBSLRU %.1f%% (paper: 13.20%%, 43.83%%)\n",
			100*(lruA-results[core.PolicyCBLRU].avgUs[last])/lruA,
			100*(lruA-results[core.PolicyCBSLRU].avgUs[last])/lruA)
	}
	fmt.Fprintln(w, "(paper: writes dominate early, reads later, so the cumulative average falls and settles)")
	return nil
}
