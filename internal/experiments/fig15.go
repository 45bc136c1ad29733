package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
)

// Fig15NoCache regenerates Fig 15: uncached retrieval with the index on
// HDD vs SSD, response time and throughput over collection size. The
// paper's observation: response time rises sharply with collection size,
// and raw SSD index storage helps only modestly at this scale. Each
// (docs, placement) pair is one independent point on the worker pool.
func Fig15NoCache(w io.Writer, sc Scale) error {
	queries := sc.MeasureQueries / 4
	if queries < 200 {
		queries = 200
	}
	docs := sc.docSweep()
	placements := []hybrid.IndexPlacement{hybrid.IndexOnHDD, hybrid.IndexOnSSD}
	// Points run cold and unobserved, so they skip measure: runMeasured
	// would warm them and add them to the -trace and -profile output.
	pts := make([]point, len(docs)*len(placements))
	err := sc.forPoints(len(pts), func(p int) error {
		sys, err := build(sc.config(docs[p/len(placements)], hybrid.CacheNone,
			placements[p%len(placements)], core.Config{}))
		if err != nil {
			return err
		}
		pts[p].run, err = sys.Run(queries)
		return err
	})
	if err != nil {
		return err
	}
	tab := metrics.NewTable("docs", "HDD_resp_ms", "SSD_resp_ms", "HDD_qps", "SSD_qps")
	for di, d := range docs {
		hdd, ssd := pts[di*2], pts[di*2+1]
		tab.AddRow(d, hdd.respMS(), ssd.respMS(), fmtQPS(hdd.run.Throughput()), fmtQPS(ssd.run.Throughput()))
	}
	_, err = io.WriteString(w, tab.String())
	fmt.Fprintln(w, "(paper: both degrade with collection size; SSD helps but not dramatically without cache)")
	return err
}
