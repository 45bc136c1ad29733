package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// memSizes returns the cache-size sweep for Fig 14: SizeSteps points from
// half the reference memory size upward, so the curves show both the
// growth and the flattening the paper observes.
func (sc Scale) memSizes() []int64 {
	steps := sc.SizeSteps
	if steps < 2 {
		steps = 2
	}
	out := make([]int64, steps)
	for i := range out {
		out[i] = sc.MemBytes * int64(i+1) / 2
	}
	return out
}

// Fig14aHitRatioComposition regenerates Fig 14(a): hit ratio of a
// result-only cache (RC), a list-only cache (IC) and the combined cache
// (RIC, 20/80 split) as the memory size grows. One-level (memory) caches,
// CBLRU policy, as the paper's composition study. Each (size, composition)
// pair is one independent point on the worker pool.
func Fig14aHitRatioComposition(w io.Writer, sc Scale) error {
	sizes := sc.memSizes()
	var cfgs []hybrid.Config
	for _, size := range sizes {
		for _, comp := range []string{"RC", "IC", "RIC"} {
			cache := sc.cacheConfig(core.PolicyCBLRU)
			cache.SSDResultBytes, cache.SSDListBytes = 0, 0
			switch comp {
			case "RC":
				cache.MemResultBytes = size - cache.ResultEntryBytes
				cache.MemListBytes = cache.ResultEntryBytes // token IC
			case "IC":
				cache.MemResultBytes = cache.ResultEntryBytes // one entry
				cache.MemListBytes = size - cache.ResultEntryBytes
			case "RIC":
				cache.MemResultBytes = size / 5
				cache.MemListBytes = size - size/5
			}
			cfgs = append(cfgs, sc.config(sc.BaseDocs, hybrid.CacheOneLevel, hybrid.IndexOnHDD, cache))
		}
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("cache_size_MB", "RC", "IC", "RIC")
	for si, size := range sizes {
		row := pts[3*si:]
		tab.AddRow(fmt.Sprintf("%.1f", float64(size)/(1<<20)),
			row[0].st.ResultHitRatio(), row[1].st.ListHitRatio(), row[2].st.CombinedHitRatio())
	}
	_, err = io.WriteString(w, tab.String())
	fmt.Fprintln(w, "(paper: ratios grow with capacity then flatten; RC saturates early, so IC deserves the larger share — the basis of the 20/80 split)")
	return err
}

// Fig14bHitRatioPolicies regenerates Fig 14(b): combined hit ratio of LRU,
// CBLRU and CBSLRU over the cache-size sweep on the full two-level
// hierarchy, plus the paper's headline average improvements. Each
// (size, policy) pair is one independent point on the worker pool.
func Fig14bHitRatioPolicies(w io.Writer, sc Scale) error {
	policies := []core.Policy{core.PolicyLRU, core.PolicyCBLRU, core.PolicyCBSLRU}
	sizes := sc.memSizes()
	var cfgs []hybrid.Config
	for _, size := range sizes {
		for _, policy := range policies {
			cache := sc.cacheConfig(policy)
			cache.MemResultBytes = size / 5
			cache.MemListBytes = size - size/5
			cfgs = append(cfgs, sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, cache))
		}
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("cache_size_MB", "LRU", "CBLRU", "CBSLRU")
	var sums [3]float64
	for si, size := range sizes {
		var row [3]float64
		for i, p := range pts[si*len(policies) : (si+1)*len(policies)] {
			row[i] = p.st.CombinedHitRatio()
			sums[i] += row[i]
		}
		tab.AddRow(fmt.Sprintf("%.1f", float64(size)/(1<<20)), row[0], row[1], row[2])
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	n := float64(len(sizes))
	fmt.Fprintf(w, "average hit-ratio gain vs LRU: CBLRU %+.2f pts, CBSLRU %+.2f pts\n",
		100*(sums[1]-sums[0])/n, 100*(sums[2]-sums[0])/n)
	fmt.Fprintln(w, "(paper: CBLRU +9.05, CBSLRU +13.31 percentage points on average)")
	return nil
}
