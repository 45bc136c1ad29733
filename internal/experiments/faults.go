package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/storage"
)

// faultRates is the SSD op-error sweep: healthy, rare transients, the 1%
// acceptance point, and on up to a fully failed device. At 100% every L2
// access fails, so the two-level system must converge on the one-level
// (memory + HDD) baseline measured alongside.
var faultRates = []float64{0, 0.001, 0.01, 0.05, 0.2, 1.0}

// faultSpec builds the injector spec for one sweep point: the same error
// probability on reads, writes and trims, with a quarter of injected
// errors leaving a sticky bad extent behind (so sustained fault pressure
// also costs capacity, not just retries).
func faultSpec(rate float64) storage.FaultSpec {
	if rate <= 0 {
		return storage.FaultSpec{}
	}
	return storage.FaultSpec{
		Seed:       0xfa17 ^ uint64(rate*1e6),
		Read:       rate,
		Write:      rate,
		Trim:       rate,
		StickyProb: 0.25,
	}
}

// Faults sweeps the injected SSD op-error rate on the two-level CBLRU
// system and reports how hit ratios, latency and the fault counters react,
// against the one-level (memory + HDD, no SSD to fail) baseline. Every
// lost entry is accounted: dropped + discarded + requeued line up with the
// injected error counts, and the quarantine/breaker columns show the
// manager routing around the failing device.
func Faults(w io.Writer, sc Scale) error {
	// Points: one per fault rate, plus the one-level baseline at the end.
	var cfgs []hybrid.Config
	for _, rate := range faultRates {
		cfg := sc.config(sc.BaseDocs, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU))
		cfg.CacheFaults = faultSpec(rate)
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, sc.config(sc.BaseDocs, hybrid.CacheOneLevel, hybrid.IndexOnHDD, sc.cacheConfig(core.PolicyCBLRU)))
	pts, err := sc.measure(cfgs)
	if err != nil {
		return err
	}

	tab := metrics.NewTable("err_rate", "RC", "IC", "RIC", "resp_ms", "qps",
		"io_errs", "requeued", "dropped", "discarded", "quar_kb", "trips", "degraded")
	for i, p := range pts {
		label := "1LC(no SSD)"
		if i < len(faultRates) {
			label = fmt.Sprintf("%.3f", faultRates[i])
		}
		st := p.st
		tab.AddRow(label,
			fmt.Sprintf("%.3f", st.ResultHitRatio()), fmt.Sprintf("%.3f", st.ListHitRatio()),
			fmt.Sprintf("%.3f", st.CombinedHitRatio()), fmt.Sprintf("%.2f", p.respMS()), fmtQPS(p.run.Throughput()),
			st.SSDReadErrors+st.SSDWriteErrors+st.SSDTrimErrors, st.ResultsRequeued, st.ResultsDropped,
			st.ListsDiscarded, st.QuarantinedBytes>>10, st.BreakerTrips, st.DegradedServes)
	}
	fmt.Fprintln(w, "# Faults — SSD op-error rate sweep, two-level CBLRU vs one-level baseline")
	io.WriteString(w, tab.String())
	fmt.Fprintln(w, "(expected: hit ratios and throughput degrade toward the 1LC row as the error rate rises; all losses accounted in the drop/requeue/quarantine columns)")
	return nil
}
