package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// FTLComparison runs the reference CBLRU cache workload against cache SSDs
// built on the three FTL families the paper surveys in §II-A: the ideal
// page-mapped baseline ("we take the ideal page-based FTL as the base
// line"), the block-mapped table of [7], and the hybrid log-block schemes
// of [8][9]. The paper notes "different FTLs may suffer a big difference
// in the same application" — this experiment quantifies that difference
// for the search-engine cache workload.
func FTLComparison(w io.Writer, sc Scale) error {
	ftls := []hybrid.FTLKind{hybrid.FTLPageMap, hybrid.FTLHybridLog, hybrid.FTLBlockMap}
	// One point per FTL on the worker pool; all stamp the same index image.
	cfgs := make([]hybrid.Config, len(ftls))
	for i, ftl := range ftls {
		cfgs[i] = sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU))
		cfgs[i].CacheFTL = ftl
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("FTL", "resp_ms", "RIC", "erases", "WA", "merges/GC")
	for i, ftl := range ftls {
		p := pts[i]
		tab.AddRow(ftl.String(), p.respMS(), p.st.CombinedHitRatio(), p.wear.TotalErases,
			fmt.Sprintf("%.2f", p.wear.WriteAmplification), p.wear.GCRuns)
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(§II-A: page mapping is the ideal baseline; block mapping pays merges on every")
	fmt.Fprintln(w, " overwrite; the hybrid log absorbs overwrites until its log pool fills)")
	return nil
}
