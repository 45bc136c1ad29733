package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// readRecords loads an NDJSON file of runs written with --out.
func readRecords(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// exactDiff is one exact number that differs between two runs of a seed.
type exactDiff struct {
	name string
	seed uint64
}

// runKey identifies runs that must agree on their exact block.
type runKey struct {
	workload string
	seed     uint64
	trace    bool
}

// compareMain prints, per workload and end-to-end metric, the median of
// each file's timed runs, the bound and a verdict: ok, worse (b is worse
// than a by more than the bound), changed (an exact number differs between
// runs of the same workload and seed) or missing. It returns the exit
// code: non-zero unless every row is ok.
func compareMain(out io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.ndjson b.ndjson")
		return 2
	}
	var files [2][]report
	for i, path := range args {
		recs, err := readRecords(path)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("%s: no runs", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		files[i] = recs
	}
	a, b := files[0], files[1]

	// Exact blocks first: which (workload, seed, trace) runs disagree.
	exactA := make(map[runKey]map[string]float64)
	for _, r := range a {
		exactA[runKey{r.Workload, r.Seed, r.Trace}] = r.Exact
	}
	changed := make(map[string][]exactDiff) // by workload
	for _, r := range b {
		ea, ok := exactA[runKey{r.Workload, r.Seed, r.Trace}]
		if !ok {
			continue
		}
		names := make([]string, 0, len(r.Exact))
		for name := range r.Exact {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if va, ok := ea[name]; !ok || va != r.Exact[name] {
				changed[r.Workload] = append(changed[r.Workload], exactDiff{name, r.Seed})
			}
		}
	}

	bad := false
	fmt.Fprintf(out, "%-14s %-22s %16s %16s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, okA := medianMetric(a, w.Name, d.Name)
			vb, okB := medianMetric(b, w.Name, d.Name)
			verdict := "ok"
			switch {
			case !okA || !okB:
				verdict = "missing"
			case d.Exact && slices.ContainsFunc(changed[w.Name], func(c exactDiff) bool { return c.name == d.Name }):
				verdict = "changed"
			case !d.Exact && worse(d, va, vb):
				verdict = "worse"
			}
			if verdict != "ok" {
				bad = true
			}
			fmt.Fprintf(out, "%-14s %-22s %16.4f %16.4f %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, va, vb, 100*ratio(vb-va, va), 100*d.Bound, verdict)
		}
		if len(changed[w.Name]) > 0 {
			bad = true
			fmt.Fprintf(out, "%-14s exact block changed:", w.Name)
			for _, c := range changed[w.Name] {
				fmt.Fprintf(out, " %s(seed %d)", c.name, c.seed)
			}
			fmt.Fprintln(out)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// medianMetric is the median of one metric over a file's timed runs of one
// workload.
func medianMetric(recs []report, workload, metric string) (float64, bool) {
	var vs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return median(vs), len(vs) > 0
}

// worse reports whether b is worse than a by more than the metric's bound.
func worse(d metricDef, a, b float64) bool {
	if d.Better == "higher" {
		return b < a*(1-d.Bound)
	}
	return b > a*(1+d.Bound)
}
