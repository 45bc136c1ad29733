package experiments

import (
	"fmt"
	"io"
	"time"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/intersect"
	"hybridstore/internal/metrics"
	"hybridstore/internal/simclock"
)

// ThreeLevel implements the paper's second future-work item (§VIII): a
// third cache level holding term-pair intersections, evaluated on a
// conjunctive (AND) workload over the doc-sorted index with skip pointers.
// Rows compare no intersection cache against growing cache sizes.
func ThreeLevel(w io.Writer, sc Scale) error {
	queries := sc.MeasureQueries
	if queries > 2000 {
		queries = 2000
	}

	run := func(icacheBytes int64) (time.Duration, float64, int64, int64, error) {
		// Fresh uncached system; the conjunctive path reads the index
		// device directly, so the intersection cache is the only cache.
		sys, err := build(sc.config(sc.BaseDocs, hybrid.CacheNone, hybrid.IndexOnHDD, core.Config{}))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		var icache *intersect.Cache
		if icacheBytes > 0 {
			icache = intersect.New(icacheBytes, func(n int) {
				sys.Clock.AdvanceAttr(100*time.Nanosecond+time.Duration(n)/10, simclock.CompCPUIntersect)
			})
		}
		engCfg := sc.engineConfig()
		engCfg.Clock = sys.Clock
		conj := engine.NewConjunctive(sys.Index, engCfg, icache)

		var blocksRead, blocksSkipped int64
		start := sys.Clock.Now()
		for i := 0; i < queries; i++ {
			q := sys.Log.Next()
			if len(q.Terms) < 2 {
				continue // conjunctions need at least two terms
			}
			_, stats, err := conj.Execute(q)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			blocksRead += stats.BlocksRead
			blocksSkipped += stats.BlocksSkipped
		}
		elapsed := sys.Clock.Now() - start
		hitRatio := 0.0
		if icache != nil {
			hitRatio = icache.Stats().HitRatio()
		}
		return elapsed / time.Duration(queries), hitRatio, blocksRead, blocksSkipped, nil
	}

	// One point per intersection-cache size on the worker pool.
	cases := []struct {
		name  string
		bytes int64
	}{
		{"none (two-level only)", 0},
		{"1x mem", sc.MemBytes},
		{"4x mem", 4 * sc.MemBytes},
	}
	type row struct {
		resp   time.Duration
		hr     float64
		br, bs int64
	}
	rows := make([]row, len(cases))
	err := sc.forPoints(len(cases), func(p int) error {
		resp, hr, br, bs, err := run(cases[p].bytes)
		if err != nil {
			return err
		}
		rows[p] = row{resp: resp, hr: hr, br: br, bs: bs}
		return nil
	})
	if err != nil {
		return err
	}
	tab := metrics.NewTable("intersection_cache", "resp_ms", "pair_hit_ratio", "blocks_read", "blocks_skipped")
	for p, c := range cases {
		tab.AddRow(c.name,
			float64(rows[p].resp.Microseconds())/1000,
			fmt.Sprintf("%.3f", rows[p].hr), rows[p].br, rows[p].bs)
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(§VIII/[19]: cached intersections spare both posting-list reads for repeated")
	fmt.Fprintln(w, " term pairs; blocks_skipped shows the skip-pointer savings of §III either way)")
	return nil
}
