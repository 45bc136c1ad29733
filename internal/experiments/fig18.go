package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// Cost model of §VII-C: dollars per GB at the paper's 2012 prices. Our
// capacities are laptop-scaled; costs are reported in the same ratio
// (per-MiB milli-dollars), which preserves the comparison.
const (
	memDollarsPerGB = 14.5
	ssdDollarsPerGB = 1.9
)

func configCost(memBytes, ssdBytes int64) float64 {
	gib := func(b int64) float64 { return float64(b) / (1 << 30) }
	return gib(memBytes)*memDollarsPerGB*1024 + gib(ssdBytes)*ssdDollarsPerGB*1024
}

// Fig18CostPerformance regenerates Fig 18: (a) mean response time of
// 1LC-HDD, 1LC-SSD and the hybrid 2LC-HDD over collection size; (b) the
// capacity-mix study — big memory vs small memory + SSD — with the cost of
// each configuration. Both parts are one list of points on the worker pool.
func Fig18CostPerformance(w io.Writer, sc Scale) error {
	setups := []struct {
		mode      hybrid.CacheMode
		placement hybrid.IndexPlacement
		policy    core.Policy
	}{
		{hybrid.CacheOneLevel, hybrid.IndexOnHDD, core.PolicyCBLRU},
		{hybrid.CacheOneLevel, hybrid.IndexOnSSD, core.PolicyCBLRU},
		{hybrid.CacheTwoLevel, hybrid.IndexOnHDD, core.PolicyCBSLRU},
	}
	mixes := []struct {
		name     string
		mem      int64
		ssd      int64 // total SSD cache bytes; 0 = one-level
		twoLevel bool
	}{
		{"1LC:MM(0.5x)", sc.MemBytes / 2, 0, false},
		{"1LC:MM(1x)", sc.MemBytes, 0, false},
		{"2LC:MM(0.2x)+SSD", sc.MemBytes / 5, sc.SSDResultBytes + sc.SSDListBytes, true},
		{"2LC:MM(0.5x)+SSD", sc.MemBytes / 2, sc.SSDResultBytes + sc.SSDListBytes, true},
	}
	docs := sc.docSweep()
	var cfgs []hybrid.Config
	for _, d := range docs {
		for _, st := range setups {
			cfgs = append(cfgs, sc.config(d, st.mode, st.placement, sc.cacheConfig(st.policy)))
		}
	}
	for _, mix := range mixes {
		mode := hybrid.CacheOneLevel
		cache := sc.cacheConfig(core.PolicyCBLRU)
		cache.MemResultBytes = max(mix.mem/5, cache.ResultEntryBytes)
		cache.MemListBytes = mix.mem - cache.MemResultBytes
		cache.SSDResultBytes, cache.SSDListBytes = 0, 0
		if mix.twoLevel {
			mode = hybrid.CacheTwoLevel
			cache.Policy = core.PolicyCBSLRU
			cache.SSDResultBytes = mix.ssd / 13 // keep ~1:12 RC:IC split
			cache.SSDListBytes = mix.ssd - cache.SSDResultBytes
		}
		cfgs = append(cfgs, sc.config(sc.BaseDocs, mode, hybrid.IndexOnHDD, cache))
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig 18(a) — mean response time (ms), CBSLRU for the two-level setup")
	tab := metrics.NewTable("docs", "1LC-HDD", "1LC-SSD", "2LC-HDD")
	for di, d := range docs {
		row := pts[di*len(setups):]
		tab.AddRow(d, row[0].respMS(), row[1].respMS(), row[2].respMS())
	}
	io.WriteString(w, tab.String())

	fmt.Fprintln(w, "\n# Fig 18(b) — capacity mixes: response time and configuration cost")
	mixPts := pts[len(docs)*len(setups):]
	mixTab := metrics.NewTable("config", "mem_MB", "ssd_MB", "resp_ms", "cost_m$")
	for mi, mix := range mixes {
		mixTab.AddRow(mix.name,
			fmt.Sprintf("%.1f", float64(mix.mem)/(1<<20)),
			fmt.Sprintf("%.1f", float64(mix.ssd)/(1<<20)),
			mixPts[mi].respMS(),
			configCost(mix.mem, mix.ssd))
	}
	io.WriteString(w, mixTab.String())
	fmt.Fprintln(w, "(paper: small memory + SSD beats big memory alone at far lower cost — memory $14.5/GB vs SSD $1.9/GB)")
	return nil
}
