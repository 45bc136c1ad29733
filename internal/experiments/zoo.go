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
// wear per point, then compares a homogeneous cache SSD against the
// heterogeneous two-device tier (fast result SSD + dense slow list SSD).
// Policies come from the registry, so a newly registered policy joins the
// sweep without edits here. Each cell is one independent point on the
// worker pool.
func Zoo(w io.Writer, sc Scale) error {
	policies := core.Policies()
	type cell struct {
		ric       float64
		respMs    float64
		hostPages int64
		erases    int64
	}
	points := len(policies) * len(zooBudgetFactors) * len(zooWorkloads)
	cells := make([]cell, points)
	err := sc.forPoints(points, func(p int) error {
		info := policies[p%len(policies)]
		factor := zooBudgetFactors[p/len(policies)%len(zooBudgetFactors)]
		wl := zooWorkloads[p/len(policies)/len(zooBudgetFactors)]

		cfg := sc.cacheConfig(info.ID)
		cfg.MemResultBytes = int64(float64(cfg.MemResultBytes) * factor)
		cfg.MemListBytes = int64(float64(cfg.MemListBytes) * factor)
		cfg.SSDResultBytes = int64(float64(cfg.SSDResultBytes) * factor)
		cfg.SSDListBytes = int64(float64(cfg.SSDListBytes) * factor)

		scWL := sc
		scWL.DistinctQueries *= wl.distinctMult
		sys, err := scWL.system(info.ID, hybrid.CacheTwoLevel, hybrid.IndexOnHDD, sc.BaseDocs, cfg)
		if err != nil {
			return err
		}
		rs, ms, err := runMeasured(sys, sc)
		if err != nil {
			return err
		}
		wear := sys.CacheSSD.Wear()
		cells[p] = cell{
			ric:       ms.CombinedHitRatio(),
			respMs:    float64(rs.MeanResponseTime().Microseconds()) / 1000,
			hostPages: wear.HostPagesWritten,
			erases:    wear.TotalErases,
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "# Policy zoo — hit ratio, latency and flash wear per policy x budget x workload")
	tab := metrics.NewTable("workload", "budget", "policy", "RIC", "resp_ms", "ssd_pages", "erases")
	for wi, wl := range zooWorkloads {
		for fi, factor := range zooBudgetFactors {
			for pi, info := range policies {
				c := cells[(wi*len(zooBudgetFactors)+fi)*len(policies)+pi]
				tab.AddRow(wl.name, fmt.Sprintf("%.1fx", factor), info.Name,
					c.ric, c.respMs, c.hostPages, c.erases)
			}
		}
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(reference = paper's AOL-like locality; lowloc = 4x distinct queries, stretching reuse distances)")

	return zooHetero(w, sc)
}

// zooHetero compares the homogeneous cache SSD against the heterogeneous
// tier on two representative policies, reporting the per-tier wear split
// that motivates the architecture: result traffic (hot, small, rewritten)
// lands on the fast device while bulk list flushes wear the dense one.
func zooHetero(w io.Writer, sc Scale) error {
	policies := []core.Policy{core.PolicyCBLRU, core.PolicyTinyLFU}
	type cell struct {
		ric                  float64
		respMs               float64
		fastPages, slowPages int64
	}
	points := len(policies) * 2 // homogeneous, heterogeneous
	cells := make([]cell, points)
	err := sc.forPoints(points, func(p int) error {
		policy := policies[p/2]
		hetero := p%2 == 1
		spec := sc.collection(sc.BaseDocs)
		img, err := sharedImage(spec, sc.Codec)
		if err != nil {
			return err
		}
		sys, err := hybrid.New(hybrid.Config{
			Collection:      spec,
			QueryLog:        sc.log(),
			Cache:           sc.cacheConfig(policy),
			Mode:            hybrid.CacheTwoLevel,
			IndexOn:         hybrid.IndexOnHDD,
			Codec:           sc.Codec,
			Engine:          sc.engineConfig(),
			UseModelPU:      true,
			IndexImage:      img,
			HeteroCacheTier: hetero,
		})
		if err != nil {
			return err
		}
		rs, ms, err := runMeasured(sys, sc)
		if err != nil {
			return err
		}
		c := cell{
			ric:    ms.CombinedHitRatio(),
			respMs: float64(rs.MeanResponseTime().Microseconds()) / 1000,
		}
		if t := sys.CacheTiered(); t != nil {
			c.fastPages = t.Fast().Wear().HostPagesWritten
			c.slowPages = t.Slow().Wear().HostPagesWritten
		} else {
			c.fastPages = sys.CacheSSD.Wear().HostPagesWritten
		}
		cells[p] = c
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\n# Heterogeneous cache tier — homogeneous SSD vs fast/slow two-device tier")
	tab := metrics.NewTable("policy", "tier", "RIC", "resp_ms", "fast_pages", "slow_pages")
	for p, c := range cells {
		tier := "homogeneous"
		if p%2 == 1 {
			tier = "hetero"
		}
		tab.AddRow(policies[p/2].String(), tier, c.ric, c.respMs, c.fastPages, c.slowPages)
	}
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return err
	}
	fmt.Fprintln(w, "(hetero: result region on the fast device, list region + metadata on the 4x-slower dense device)")
	return nil
}
