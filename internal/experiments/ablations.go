package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// Ablations measures the design choices DESIGN.md calls out, one row per
// variant: combined hit ratio, mean response time, SSD erases and SSD
// write volume at the reference scale.
func Ablations(w io.Writer, sc Scale) error {
	type variant struct {
		name   string
		policy core.Policy
		mutate func(*core.Config)
	}
	variants := []variant{
		{"LRU baseline", core.PolicyLRU, nil},
		{"CBLRU (default)", core.PolicyCBLRU, nil},
		{"CBLRU, TEV=0 (no selection)", core.PolicyCBLRU, func(c *core.Config) { c.TEV = 0 }},
		{"CBLRU, no readahead", core.PolicyCBLRU, func(c *core.Config) { c.PrefetchQuantum = -1 }},
		{"CBLRU, W=1", core.PolicyCBLRU, func(c *core.Config) { c.WindowW = 1 }},
		{"CBLRU, W=20", core.PolicyCBLRU, func(c *core.Config) { c.WindowW = 20 }},
		{"CBSLRU, static 25%", core.PolicyCBSLRU, func(c *core.Config) { c.StaticFraction = 0.25 }},
		{"CBSLRU, static 50%", core.PolicyCBSLRU, func(c *core.Config) { c.StaticFraction = 0.5 }},
		{"CBSLRU, static 75%", core.PolicyCBSLRU, func(c *core.Config) { c.StaticFraction = 0.75 }},
	}

	// One point per variant on the worker pool; all stamp the same index.
	cfgs := make([]hybrid.Config, len(variants))
	for i, v := range variants {
		cache := sc.cacheConfig(v.policy)
		if v.mutate != nil {
			v.mutate(&cache)
		}
		cfgs[i] = sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, cache)
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("variant", "RIC", "resp_ms", "erases", "ssd_write_MB")
	for i, v := range variants {
		p := pts[i]
		tab.AddRow(v.name, p.st.CombinedHitRatio(), p.respMS(), p.wear.TotalErases,
			fmt.Sprintf("%.1f", float64(p.st.ListBytesToSSD+p.st.ResultBytesToSSD)/(1<<20)))
	}
	_, err = io.WriteString(w, tab.String())
	fmt.Fprintln(w, "(each row isolates one design choice of §VI; erases are cumulative from cold)")
	return err
}
