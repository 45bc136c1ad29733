// Command tracetool analyzes NDJSON query traces written by searchsim or
// hybridbench -trace.
//
// Usage:
//
//	tracetool summary run.ndjson            # per-situation attribution table
//	tracetool topk -n 20 run.ndjson         # slowest queries, component breakdown
//	tracetool diff before.ndjson after.ndjson
//	tracetool flame run.ndjson > run.folded # flamegraph folded stacks
//
// summary also audits the attribution contract — every trace's component
// sums must equal its simulated elapsed time — and exits non-zero when a
// trace violates it or when no trace carries attribution at all, so CI can
// gate on it. All output is deterministic: situations sort
// lexicographically and components render in canonical enum order.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hybridstore/internal/obs"
	"hybridstore/internal/simclock"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "summary":
		err = runSummary(os.Args[2:])
	case "topk":
		err = runTopK(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "flame":
		err = runFlame(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: tracetool <command> [flags] <trace.ndjson>...

commands:
  summary   per-situation latency-attribution table; fails when any trace's
            attribution does not sum to its elapsed time, or when no trace
            carries attribution
  topk      slowest queries with per-component breakdown (-n, default 10)
  diff      per-component latency deltas between two trace files
  flame     folded flamegraph stacks (root;situation;component <ns>)
`)
}

// readTraces loads every NDJSON trace record from the named files, in file
// then line order. "-" reads stdin.
func readTraces(paths []string) ([]obs.QueryTrace, error) {
	var out []obs.QueryTrace
	for _, path := range paths {
		var r io.Reader
		if path == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		line := 0
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			var tr obs.QueryTrace
			if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			out = append(out, tr)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
	}
	return out, nil
}

// fold aggregates traces into a per-situation profile. Traces without
// attribution are counted but contribute no components.
func fold(traces []obs.QueryTrace) (*obs.Profile, int) {
	p := obs.NewProfile()
	attributed := 0
	for _, tr := range traces {
		if tr.Attrib == nil {
			continue
		}
		attributed++
		p.Add(situation(tr), tr.ElapsedNS, *tr.Attrib)
	}
	return p, attributed
}

func situation(tr obs.QueryTrace) string {
	if tr.Situation == "" {
		return "uncached"
	}
	return tr.Situation
}

func runSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	fs.Parse(args)
	traces, err := readTraces(files(fs))
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no trace records found")
	}

	// The attribution contract: component sums equal elapsed, per trace.
	bad := 0
	for _, tr := range traces {
		if tr.Attrib == nil {
			continue
		}
		if sum := tr.Attrib.Sum(); sum != tr.ElapsedNS {
			bad++
			if bad <= 10 {
				fmt.Fprintf(os.Stderr, "tracetool: seq=%d qid=%d attribution sums to %dns, elapsed is %dns (off by %d)\n",
					tr.Seq, tr.QID, sum, tr.ElapsedNS, tr.ElapsedNS-sum)
			}
		}
	}
	prof, attributed := fold(traces)
	if attributed == 0 {
		return fmt.Errorf("%d traces, none carry attribution (trace written without clock attribution?)", len(traces))
	}

	rows := prof.Rows()
	var grand int64
	for _, row := range rows {
		grand += row.ElapsedNS
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "traces=%d attributed=%d total_elapsed_ns=%d\n", len(traces), attributed, grand)
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s n=%-7d total_ns=%-14d", row.Situation, row.Queries, row.ElapsedNS)
		for c := range simclock.NumComponents {
			v := row.Attrib[c]
			// queue_wait prints even at zero: the serving layer's
			// saturation signal should be visible (as its absence) at a
			// glance, not hidden by the zero-elision the other components
			// get.
			if v == 0 && c != simclock.CompQueueWait {
				continue
			}
			fmt.Fprintf(w, " %s=%d(%.1f%%)", c, v,
				100*float64(v)/float64(row.ElapsedNS))
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d attributed traces violate attribution == elapsed", bad, attributed)
	}
	return nil
}

func runTopK(args []string) error {
	fs := flag.NewFlagSet("topk", flag.ExitOnError)
	n := fs.Int("n", 10, "number of slowest queries to print")
	fs.Parse(args)
	traces, err := readTraces(files(fs))
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no trace records found")
	}
	sort.SliceStable(traces, func(i, j int) bool {
		if traces[i].ElapsedNS != traces[j].ElapsedNS {
			return traces[i].ElapsedNS > traces[j].ElapsedNS
		}
		return traces[i].Seq < traces[j].Seq
	})
	if *n < len(traces) {
		traces = traces[:*n]
	}
	w := bufio.NewWriter(os.Stdout)
	for _, tr := range traces {
		fmt.Fprintf(w, "seq=%-7d qid=%-10d %-18s elapsed_ns=%-12d", tr.Seq, tr.QID, situation(tr), tr.ElapsedNS)
		if tr.Attrib != nil {
			for c := range simclock.NumComponents {
				v := tr.Attrib[c]
				if v == 0 {
					continue
				}
				fmt.Fprintf(w, " %s=%d", c, v)
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	paths := files(fs)
	if len(paths) != 2 {
		return fmt.Errorf("diff wants exactly two trace files, got %d", len(paths))
	}
	var totals [2]obs.Attrib
	var elapsed [2]int64
	var count [2]int
	for i, path := range paths {
		traces, err := readTraces([]string{path})
		if err != nil {
			return err
		}
		count[i] = len(traces)
		for _, tr := range traces {
			elapsed[i] += tr.ElapsedNS
			if tr.Attrib != nil {
				totals[i].Merge(*tr.Attrib)
			}
		}
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "a=%s traces=%d elapsed_ns=%d\n", paths[0], count[0], elapsed[0])
	fmt.Fprintf(w, "b=%s traces=%d elapsed_ns=%d\n", paths[1], count[1], elapsed[1])
	fmt.Fprintf(w, "%-18s %14s %14s %14s\n", "component", "a_ns", "b_ns", "delta_ns")
	for c := range simclock.NumComponents {
		a, b := totals[0][c], totals[1][c]
		if a == 0 && b == 0 {
			continue
		}
		fmt.Fprintf(w, "%-18s %14d %14d %+14d\n", c, a, b, b-a)
	}
	fmt.Fprintf(w, "%-18s %14d %14d %+14d\n", "total_elapsed", elapsed[0], elapsed[1], elapsed[1]-elapsed[0])
	return w.Flush()
}

func runFlame(args []string) error {
	fs := flag.NewFlagSet("flame", flag.ExitOnError)
	fs.Parse(args)
	traces, err := readTraces(files(fs))
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no trace records found")
	}
	prof, attributed := fold(traces)
	if attributed == 0 {
		return fmt.Errorf("%d traces, none carry attribution", len(traces))
	}
	return prof.WriteFolded(os.Stdout, "query")
}

// files returns the flag set's positional arguments, defaulting to stdin.
func files(fs *flag.FlagSet) []string {
	if fs.NArg() == 0 {
		return []string{"-"}
	}
	return fs.Args()
}
