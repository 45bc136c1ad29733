package hybrid

import (
	"fmt"
	"strings"
	"time"

	"hybridstore/internal/simclock"
	"hybridstore/internal/storage"
)

// Report renders a human-readable snapshot of the whole system: cache hit
// ratios, Table I situation tally, device counters and SSD wear. With
// observability enabled the situation rows gain p50/p95/p99 latencies from
// the per-situation histograms.
func (s *System) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "mode=%s index_on=%s", s.cfg.Mode, s.cfg.IndexOn)
	if s.Manager != nil {
		fmt.Fprintf(&sb, " policy=%s", s.Manager.Policy())
	}
	sb.WriteByte('\n')

	if s.Manager != nil {
		st := s.Manager.Stats()
		fmt.Fprintf(&sb, "queries=%d mean_response=%v throughput=%.1f q/s\n",
			st.Queries, st.MeanQueryTime(), st.Throughput())
		fmt.Fprintf(&sb, "hit ratios: RC=%.3f IC=%.3f RIC=%.3f\n",
			st.ResultHitRatio(), st.ListHitRatio(), st.CombinedHitRatio())
		fmt.Fprintf(&sb, "list bytes: mem=%d ssd=%d hdd=%d to_ssd=%d elided=%d discarded=%d lists_per_write=%.1f padding=%.3f\n",
			st.ListBytesFromMem, st.ListBytesFromSSD, st.ListBytesFromHDD,
			st.ListBytesToSSD, st.ListWritesElided, st.ListsDiscarded,
			st.ListsPerSSDWrite(), st.ListPaddingShare())
		fmt.Fprintf(&sb, "results: mem_hits=%d ssd_hits=%d misses=%d rb_flushes=%d elided=%d\n",
			st.ResultHitsMem, st.ResultHitsSSD, st.ResultMisses,
			st.RBFlushes, st.ResultWritesElided)
		sb.WriteString("situations (Table I):\n")
		for _, row := range st.Situations.Table() {
			if row.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %-18s P=%.4f T=%v", row.Sit, row.P, row.MeanTime)
			if s.obs != nil {
				lat := s.obs.SituationLatency(row.Sit)
				fmt.Fprintf(&sb, " p50=%v p95=%v p99=%v",
					usDur(lat.P50), usDur(lat.P95), usDur(lat.P99))
			}
			sb.WriteByte('\n')
		}
	}
	if s.obs != nil {
		lat := s.obs.OverallLatency()
		if lat.Count > 0 {
			fmt.Fprintf(&sb, "latency (all queries): n=%d mean=%v p50=%v p95=%v p99=%v p999=%v\n",
				lat.Count, usDur(lat.Mean), usDur(lat.P50), usDur(lat.P95), usDur(lat.P99), usDur(lat.P999))
		}
		if rows := s.obs.Profile().Rows(); len(rows) > 0 {
			sb.WriteString("latency attribution:\n")
			for _, row := range rows {
				fmt.Fprintf(&sb, "  %-18s n=%d total=%v", row.Situation, row.Queries,
					time.Duration(row.ElapsedNS).Round(time.Microsecond))
				for c, v := range row.Attrib {
					if v == 0 {
						continue
					}
					fmt.Fprintf(&sb, " %s=%.1f%%", simclock.Component(c),
						100*float64(v)/float64(row.ElapsedNS))
				}
				sb.WriteByte('\n')
			}
		}
	}

	device := func(name string, stats storage.DeviceStats) {
		fmt.Fprintf(&sb, "%s: reads=%d writes=%d bytesR=%d bytesW=%d avg_access=%v\n",
			name, stats.Reads, stats.Writes, stats.BytesRead, stats.BytesWrit,
			stats.AvgAccessTime())
	}
	if s.HDD != nil {
		device("hdd", s.HDD.Stats())
	}
	if s.IndexSSD != nil {
		device("index-ssd", s.IndexSSD.Stats())
		w := s.IndexSSD.Wear()
		fmt.Fprintf(&sb, "index-ssd wear: erases=%d WA=%.3f\n", w.TotalErases, w.WriteAmplification)
	}
	if s.CacheSSD != nil {
		device("cache-ssd", s.CacheSSD.Stats())
		w := s.CacheSSD.Wear()
		fmt.Fprintf(&sb, "cache-ssd wear: erases=%d gc_copies=%d WA=%.3f free_blocks=%d\n",
			w.TotalErases, w.GCPageCopies, w.WriteAmplification, w.FreeBlocks)
	}
	return sb.String()
}

// usDur converts a microsecond quantity to a rounded Duration for display.
func usDur(us float64) time.Duration {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond)
}
