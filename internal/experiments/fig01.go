package experiments

import (
	"fmt"
	"io"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/trace"
)

// engineTrace runs the uncached engine on an HDD-resident index and
// records the disk's read stream — the reproduction of the paper's
// DiskMon capture behind Fig 1(b).
func engineTrace(sc Scale, queries int) ([]trace.Point, trace.Characteristics, error) {
	sys, err := build(sc.config(sc.BaseDocs/2, hybrid.CacheNone, hybrid.IndexOnHDD, core.Config{}))
	if err != nil {
		return nil, trace.Characteristics{}, err
	}
	var rec trace.Recorder
	sys.HDD.SetOpHook(rec.Record)
	if _, err := sys.Run(queries); err != nil {
		return nil, trace.Characteristics{}, err
	}
	ops := rec.Ops()
	return trace.ReadSequence(ops), trace.Analyze(ops), nil
}

// Fig01IOTrace regenerates the two I/O traces of Fig 1: (a) a UMass-like
// web search trace, (b) the trace of our Lucene-like engine, both as
// (read sequence, logical sector) series plus summary characteristics.
func Fig01IOTrace(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "# Fig 1(a) — web search trace (UMass-like, synthetic)")
	webOps := trace.SyntheticWebSearch(trace.DefaultWebSearchParams())
	printSeries(w, trace.ReadSequence(webOps), 25)
	printCharacteristics(w, trace.Analyze(webOps))

	fmt.Fprintln(w, "\n# Fig 1(b) — Lucene-like engine trace (measured on the simulated HDD)")
	pts, ch, err := engineTrace(sc, 300)
	if err != nil {
		return err
	}
	printSeries(w, pts, 25)
	printCharacteristics(w, ch)
	return nil
}

// IOStats regenerates the §III characterization: the four access-pattern
// properties measured from the engine's own disk trace.
func IOStats(w io.Writer, sc Scale) error {
	_, ch, err := engineTrace(sc, 500)
	if err != nil {
		return err
	}
	tab := metrics.NewTable("characteristic", "value", "paper claim")
	tab.AddRow("read fraction", fmt.Sprintf("%.4f", ch.ReadFraction), ">0.99 (read-dominant)")
	tab.AddRow("top-10% sector share", fmt.Sprintf("%.3f", ch.Top10PctShare), ">>0.10 (locality)")
	tab.AddRow("sequential fraction", fmt.Sprintf("%.3f", ch.SequentialFraction), "<1 (random reads present)")
	tab.AddRow("forward-skip fraction", fmt.Sprintf("%.3f", ch.ForwardSkipFraction), ">0 (skipped reads)")
	tab.AddRow("backward fraction", fmt.Sprintf("%.3f", ch.BackwardFraction), "(seeks back between lists)")
	tab.AddRow("unique sectors", ch.UniqueSectors, "-")
	tab.AddRow("operations", ch.Ops, "-")
	_, err = io.WriteString(w, tab.String())
	return err
}

// printSeries decimates a point series to at most n rows.
func printSeries(w io.Writer, pts []trace.Point, n int) {
	if len(pts) == 0 {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	stride := len(pts) / n
	if stride < 1 {
		stride = 1
	}
	fmt.Fprintln(w, "read_seq  logical_sector")
	for i := 0; i < len(pts); i += stride {
		fmt.Fprintf(w, "%8d  %d\n", pts[i].Seq, pts[i].LSN)
	}
}

func printCharacteristics(w io.Writer, ch trace.Characteristics) {
	fmt.Fprintf(w, "reads=%d/%d (%.2f%%) unique_sectors=%d top10%%share=%.3f seq=%.3f skip=%.3f\n",
		ch.Reads, ch.Ops, 100*ch.ReadFraction, ch.UniqueSectors,
		ch.Top10PctShare, ch.SequentialFraction, ch.ForwardSkipFraction)
}
