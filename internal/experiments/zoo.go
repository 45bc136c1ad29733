package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// zooBudgetFactors scales the reference cache budgets (memory and SSD
// regions together) to show how each policy degrades under pressure.
var zooBudgetFactors = []float64{0.5, 1.0}

// zooWorkloads names the query-stream variants of the sweep: the reference
// log, and a low-locality variant with 4x the distinct queries so reuse
// distances stretch and admission policies have something to reject.
var zooWorkloads = []struct {
	name         string
	distinctMult int
}{
	{"reference", 1},
	{"lowloc", 4},
}

// Zoo sweeps every registered cache policy over budget x workload on the
// full two-level hierarchy and reports hit ratio, response time and flash
// wear per point.
// Policies come from the registry, so a newly registered policy joins the
// sweep without edits here. Each cell is one independent point on the
// worker pool.
func Zoo(w io.Writer, sc Scale) error {
	policies := core.Policies()
	var cfgs []hybrid.Config
	for _, wl := range zooWorkloads {
		for _, factor := range zooBudgetFactors {
			for _, info := range policies {
				cache := sc.cacheConfig(info.ID)
				cache.MemResultBytes = int64(float64(cache.MemResultBytes) * factor)
				cache.MemListBytes = int64(float64(cache.MemListBytes) * factor)
				cache.SSDResultBytes = int64(float64(cache.SSDResultBytes) * factor)
				cache.SSDListBytes = int64(float64(cache.SSDListBytes) * factor)
				cfg := sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, cache)
				cfg.QueryLog.DistinctQueries *= wl.distinctMult
				cfgs = append(cfgs, cfg)
			}
		}
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# Policy zoo — hit ratio, latency and flash wear per policy x budget x workload")
	tab := metrics.NewTable("workload", "budget", "policy", "RIC", "resp_ms", "ssd_pages", "erases")
	for wi, wl := range zooWorkloads {
		for fi, factor := range zooBudgetFactors {
			for pi, info := range policies {
				p := pts[(wi*len(zooBudgetFactors)+fi)*len(policies)+pi]
				tab.AddRow(wl.name, fmt.Sprintf("%.1fx", factor), info.Name,
					p.st.CombinedHitRatio(), p.respMS(), p.wear.HostPagesWritten, p.wear.TotalErases)
			}
		}
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(reference = paper's AOL-like locality; lowloc = 4x distinct queries, stretching reuse distances)")
	return nil
}
