package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
)

// Table1Situations regenerates Table I: the nine retrieval situations with
// their measured probabilities P1..P9 and mean time costs T1..T9, under
// the full two-level architecture (memory + SSD, CBSLRU). The last column is
// the share of each situation's time its queries spent stalled behind the
// cache SSD's background work (the ssd_erase_stall attribution component):
// a cache-served situation that mostly waits is visible here, without a
// second tool.
func Table1Situations(w io.Writer, sc Scale) error {
	sys, err := build(sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBSLRU)))
	if err != nil {
		return err
	}
	profiled := sc
	profiled.Profile = obs.NewProfile()
	if _, _, err := runMeasured(sys, profiled); err != nil {
		return err
	}
	if sc.Profile != nil {
		sc.Profile.Merge(profiled.Profile)
	}
	stall := make(map[string]string)
	for _, row := range profiled.Profile.Rows() {
		if row.ElapsedNS > 0 {
			stall[row.Situation] = fmt.Sprintf("%.1f%%",
				100*float64(row.Attrib[simclock.CompSSDEraseStall])/float64(row.ElapsedNS))
		}
	}
	tally := sys.Manager.Stats().Situations

	tab := metrics.NewTable("situation", "sources", "P_i", "T_i", "ssd_stall")
	var cached float64
	for _, row := range tally.Table() {
		tab.AddRow(fmt.Sprintf("S%d", int(row.Sit)+1), row.Sit.String(),
			fmt.Sprintf("%.4f", row.P), row.MeanTime.String(), stall[row.Sit.String()])
		if row.Sit <= core.S5ListsSSD {
			cached += row.P
		}
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "queries classified: %d\n", tally.Total())
	fmt.Fprintln(w, "(paper's goal: maximize P1..P5 — cache-served situations — and keep their T low)")
	fmt.Fprintf(w, "P(S1..S5) = %.4f\n", cached)
	fmt.Fprintf(w, "index bytes on device: %d (codec=%s)\n",
		sys.Index.SizeBytes(), sys.Index.Codec())
	return nil
}
