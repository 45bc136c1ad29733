package experiments

import (
	"fmt"
	"io"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// DynamicScenario implements the paper's §IV-B/§VIII future-work study:
// cached data carries a TTL, and expired entries are recomputed from the
// backing store. The sweep shows the freshness/performance trade-off: as
// TTLs shrink, hit ratios fall and response time climbs back toward the
// uncached baseline.
func DynamicScenario(w io.Writer, sc Scale) error {
	ttls := []struct {
		name string
		ttl  time.Duration
	}{
		{"static (no TTL)", 0},
		{"TTL 60s", 60 * time.Second},
		{"TTL 10s", 10 * time.Second},
		{"TTL 2s", 2 * time.Second},
	}
	// One point per TTL scenario on the worker pool.
	cfgs := make([]hybrid.Config, len(ttls))
	for i, c := range ttls {
		cache := sc.cacheConfig(core.PolicyCBLRU)
		cache.ResultTTL, cache.ListTTL = c.ttl, c.ttl
		cfgs[i] = sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, cache)
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("scenario", "RC", "IC", "RIC", "resp_ms", "expired(R)", "expired(I)")
	for i, c := range ttls {
		st := pts[i].st
		tab.AddRow(c.name, st.ResultHitRatio(), st.ListHitRatio(), st.CombinedHitRatio(), pts[i].respMS(),
			st.ResultsExpired, st.ListsExpired)
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(§IV-B: expired entries are re-read from HDD; shorter TTLs trade performance for freshness)")
	return nil
}
