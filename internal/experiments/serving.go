package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/serve"
)

// servingShards and servingLoads define the serving sweep grid: shard
// counts the reference cache budgets can absorb (the L1 result region must
// still hold one entry per shard) × offered loads as multiples of the
// calibrated single-shard capacity μ. The top load sits well past one
// shard's saturation point, which is where shard scaling shows.
var servingShards = []int{1, 2, 4}
var servingLoads = []float64{0.5, 1.5, 3.0}

// Serving measures the concurrent serving layer: shard count × offered
// load under open-loop Poisson arrivals (diurnal-modulated), reporting
// delivered throughput and p99/p999 simulated-time tail latency. Offered
// loads are expressed as multiples of the single-shard closed-loop
// capacity μ, calibrated first, so the grid covers under-load, the knee,
// and deep saturation at any Scale. Each grid cell is one independent
// point on the worker pool; output is byte-identical at any -jobs.
func Serving(w io.Writer, sc Scale) error {
	base, err := stamp(sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU)))
	if err != nil {
		return err
	}
	mu, err := serve.CalibrateQPS(base, sc.WarmQueries, sc.MeasureQueries)
	if err != nil {
		return err
	}

	type cell struct {
		r    serve.Result
		line string
	}
	cells := make([]cell, len(servingShards)*len(servingLoads))
	err = sc.forPoints(len(cells), func(p int) error {
		shards := servingShards[p/len(servingLoads)]
		load := servingLoads[p%len(servingLoads)]
		cfg := serve.Config{
			Base:        base,
			Shards:      shards,
			Rate:        load * mu,
			WarmQueries: sc.WarmQueries,
			Observer:    sc.observer(),
		}
		pool, err := serve.New(cfg)
		if err != nil {
			return err
		}
		if err := pool.Warm(); err != nil {
			return err
		}
		r, err := pool.Run(sc.MeasureQueries)
		if err != nil {
			return err
		}
		if sc.Profile != nil {
			pool.MergeProfile(sc.Profile)
		}
		cells[p] = cell{
			r: r,
			line: fmt.Sprintf(
				"shards=%d load=%.2fx offered_qps=%.1f tput_qps=%.1f coalesced=%d util=%.3f queue_wait_ms=%.1f p50_us=%.0f p99_us=%.0f p999_us=%.0f maxq=%d",
				shards, load, r.OfferedQPS(), r.ThroughputQPS(), r.Coalesced,
				r.Utilization(), float64(r.QueueWait.Microseconds())/1000,
				r.Latency.P50, r.Latency.P99, r.Latency.P999,
				r.MaxQueue),
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "single-shard closed-loop capacity mu=%.1f q/s\n", mu)
	for _, c := range cells {
		fmt.Fprintln(w, c.line)
	}

	header := []string{"load"}
	for _, s := range servingShards {
		header = append(header, fmt.Sprintf("%d-shard", s))
	}
	thrTab := metrics.NewTable(header...)
	p99Tab := metrics.NewTable(header...)
	p999Tab := metrics.NewTable(header...)
	for li, load := range servingLoads {
		thr := []any{fmt.Sprintf("%.2fx", load)}
		p99 := []any{fmt.Sprintf("%.2fx", load)}
		p999 := []any{fmt.Sprintf("%.2fx", load)}
		for si := range servingShards {
			r := cells[si*len(servingLoads)+li].r
			thr = append(thr, fmtQPS(r.ThroughputQPS()))
			p99 = append(p99, fmt.Sprintf("%.0f", r.Latency.P99))
			p999 = append(p999, fmt.Sprintf("%.0f", r.Latency.P999))
		}
		thrTab.AddRow(thr...)
		p99Tab.AddRow(p99...)
		p999Tab.AddRow(p999...)
	}
	fmt.Fprintln(w, "\nthroughput (q/s) by shard count:")
	io.WriteString(w, thrTab.String())
	fmt.Fprintln(w, "\np99 latency (µs) by shard count:")
	io.WriteString(w, p99Tab.String())
	fmt.Fprintln(w, "\np999 latency (µs) by shard count:")
	io.WriteString(w, p999Tab.String())
	return nil
}
