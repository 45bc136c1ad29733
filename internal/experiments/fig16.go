package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// fig16Config builds the cache configuration for one of Fig 16's setups.
// "R" setups cache results only (token list cache); "RI" caches both.
// Two-level setups use the paper's 10×/100× SSD region ratios.
func (sc Scale) fig16Config(twoLevel, withLists bool) core.Config {
	cfg := sc.cacheConfig(core.PolicyCBLRU)
	if !withLists {
		cfg.MemResultBytes = sc.MemBytes - cfg.ResultEntryBytes
		cfg.MemListBytes = cfg.ResultEntryBytes
	}
	if !twoLevel {
		cfg.SSDResultBytes, cfg.SSDListBytes = 0, 0
		return cfg
	}
	cfg.SSDResultBytes = 10 * cfg.MemResultBytes
	if withLists {
		cfg.SSDListBytes = sc.SSDListBytes
	} else {
		cfg.SSDListBytes = 0
	}
	return cfg
}

// Fig16OneVsTwoLevel regenerates Fig 16: (a) a one-level result cache with
// the index on HDD vs SSD; (b) one-level vs two-level caches on HDD,
// result-only vs result+list. Response time and throughput per collection
// size. Each (docs, setup) pair is one independent point on the worker
// pool; the four setups at one doc count stamp the same cached index image.
func Fig16OneVsTwoLevel(w io.Writer, sc Scale) error {
	type setup struct {
		name      string
		mode      hybrid.CacheMode
		placement hybrid.IndexPlacement
		twoLevel  bool
		withLists bool
	}
	setups := []setup{
		{"1LC(R)-HDD", hybrid.CacheOneLevel, hybrid.IndexOnHDD, false, false},
		{"1LC(R)-SSD", hybrid.CacheOneLevel, hybrid.IndexOnSSD, false, false},
		{"2LC(R)-HDD", hybrid.CacheTwoLevel, hybrid.IndexOnHDD, true, false},
		{"2LC(RI)-HDD", hybrid.CacheTwoLevel, hybrid.IndexOnHDD, true, true},
	}
	docs := sc.docSweep()
	var cfgs []hybrid.Config
	for _, d := range docs {
		for _, st := range setups {
			cfgs = append(cfgs, sc.config(d, st.mode, st.placement, sc.fig16Config(st.twoLevel, st.withLists)))
		}
	}
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}
	respTab := metrics.NewTable("docs", setups[0].name, setups[1].name, setups[2].name, setups[3].name)
	thrTab := metrics.NewTable("docs", setups[0].name, setups[1].name, setups[2].name, setups[3].name)
	for di, d := range docs {
		resp, thr := []any{d}, []any{d}
		for _, p := range pts[di*len(setups) : (di+1)*len(setups)] {
			resp = append(resp, p.respMS())
			thr = append(thr, fmtQPS(p.run.Throughput()))
		}
		respTab.AddRow(resp...)
		thrTab.AddRow(thr...)
	}
	fmt.Fprintln(w, "# Fig 16 — mean response time (ms)")
	io.WriteString(w, respTab.String())
	fmt.Fprintln(w, "\n# Fig 16 — throughput (queries/s)")
	io.WriteString(w, thrTab.String())
	fmt.Fprintln(w, "(paper: SSD index storage alone helps little; the two-level cache, especially RI, wins)")
	return nil
}
