package hybrid

import (
	"fmt"
	"strings"
	"time"

	"hybridstore/internal/metrics"
	"hybridstore/internal/simclock"
)

// Report renders BuildReport's numbers as human-readable text: cache hit
// ratios, Table I situation tally, device counters and SSD wear. With
// observability enabled the situation rows gain p50/p95/p99 latencies from
// the per-situation histograms, and the latency summary and attribution
// sections appear.
func (s *System) Report() string {
	r := s.BuildReport()
	ms := func(v int64) string { return metrics.FormatMS(float64(v)) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s index_on=%s", r.Mode, r.IndexOn)
	if r.Policy != "" {
		fmt.Fprintf(&sb, " policy=%s", r.Policy)
	}
	sb.WriteByte('\n')

	if st := r.Stats; st != nil {
		fmt.Fprintf(&sb, "queries=%d mean_response=%s throughput=%.1f q/s\n",
			r.Queries, ms(r.MeanResponseUS), r.ThroughputQPS)
		fmt.Fprintf(&sb, "hit ratios: RC=%.3f IC=%.3f RIC=%.3f\n",
			r.HitRatios.RC, r.HitRatios.IC, r.HitRatios.RIC)
		fmt.Fprintf(&sb, "list bytes: mem=%d ssd=%d hdd=%d to_ssd=%d elided=%d discarded=%d lists_per_write=%.1f padding=%.3f\n",
			st.ListBytesFromMem, st.ListBytesFromSSD, st.ListBytesFromHDD,
			st.ListBytesToSSD, st.ListWritesElided, st.ListsDiscarded,
			r.ListsPerSSDWrite, r.ListPaddingShare)
		fmt.Fprintf(&sb, "results: mem_hits=%d ssd_hits=%d misses=%d rb_flushes=%d elided=%d\n",
			st.ResultHitsMem, st.ResultHitsSSD, st.ResultMisses,
			st.RBFlushes, st.ResultWritesElided)
		sb.WriteString("situations (Table I):\n")
		for _, row := range r.Situations {
			if row.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-18s P=%.4f T=%s", row.Name, row.P, ms(row.MeanUS))
			if lat := row.Latency; lat != nil {
				fmt.Fprintf(&sb, " p50=%s p95=%s p99=%s",
					metrics.FormatMS(lat.P50), metrics.FormatMS(lat.P95), metrics.FormatMS(lat.P99))
			}
			sb.WriteByte('\n')
		}
	}
	if lat := r.Latency; lat != nil && lat.Count > 0 {
		fmt.Fprintf(&sb, "latency (all queries): n=%d mean=%s p50=%s p95=%s p99=%s p999=%s\n",
			lat.Count, metrics.FormatMS(lat.Mean), metrics.FormatMS(lat.P50), metrics.FormatMS(lat.P95),
			metrics.FormatMS(lat.P99), metrics.FormatMS(lat.P999))
	}
	if len(r.Attribution) > 0 {
		sb.WriteString("latency attribution:\n")
		for _, row := range r.Attribution {
			fmt.Fprintf(&sb, "  %-18s n=%d total=%s", row.Situation, row.Queries,
				ms(metrics.RoundUS(time.Duration(row.TotalNS))))
			for c, v := range row.Components {
				if v == 0 {
					continue
				}
				fmt.Fprintf(&sb, " %s=%.1f%%", simclock.Component(c), 100*float64(v)/float64(row.TotalNS))
			}
			sb.WriteByte('\n')
		}
	}

	for _, d := range r.Devices {
		fmt.Fprintf(&sb, "%s: reads=%d writes=%d bytesR=%d bytesW=%d avg_access=%s\n",
			d.Name, d.Reads, d.Writes, d.BytesRead, d.BytesWrit, ms(d.AvgAccessUS))
		w, ok := r.Wear[d.Name]
		switch {
		case !ok:
		case d.Name == "index-ssd":
			fmt.Fprintf(&sb, "index-ssd wear: erases=%d WA=%.3f\n", w.Erases, w.WriteAmplification)
		default:
			fmt.Fprintf(&sb, "%s wear: erases=%d gc_copies=%d WA=%.3f free_blocks=%d\n",
				d.Name, w.Erases, w.GCPageCopies, w.WriteAmplification, w.FreeBlocks)
		}
	}
	return sb.String()
}
