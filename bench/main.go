// Command bench is the repository's benchmark: four named workloads, host
// and simulated end-to-end metrics from a timed pass on the untouched
// public facade, and per-layer metrics from a traced pass that times calls
// into each layer's public functions from outside. See README.md.
//
//	bash bench/run.sh --workload ref_2lc --seed 2561 --seconds 12 --trace 0
//	bash bench/run.sh compare a.ndjson b.ndjson
//	bash bench/run.sh manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Stdout, os.Args[2:]))
		case "manifest":
			out, err := manifest()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(out)
			return
		}
	}

	name := flag.String("workload", "", "workload to run (required): one of the names in workloads.go")
	seed := flag.Uint64("seed", 0xA01, "feeds QueryLogSpec.Seed: same seed, same queries")
	seconds := flag.Float64("seconds", runSeconds, "measure until the rounds' windows add up to this many host seconds")
	trace := flag.Int("trace", 0, "0: timed rounds, end-to-end metrics; 1: one timed and one traced round, per-layer metrics")
	outFile := flag.String("out", "", "append the run's full record (metrics and exact block) to this NDJSON file, for compare")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--out file]\n       bench compare a.ndjson b.ndjson\n       bench manifest\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	rep, err := run(w, *seed, *seconds, *trace == 1, defaultOptions)
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if *outFile != "" {
		if err := appendRecord(*outFile, rep); err != nil {
			fatal(err)
		}
	}
	// The driver's contract: the last line of standard output is one JSON
	// object with exactly these keys.
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", last)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printReport lists every metric by name with its unit, then the exact
// block, in sorted order so two runs can be diffed.
func printReport(rep report) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v rounds=%d attempted=%d failed=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Rounds, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %18.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Println("# exact: simulated numbers and counts that repeat bit-for-bit for a seed")
	names = names[:0]
	for name := range rep.Exact {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("exact %-30s %18.6f\n", name, rep.Exact[name])
	}
	for _, p := range rep.Problems {
		fmt.Printf("# PROBLEM: %s\n", p)
	}
}

// appendRecord adds the run to an NDJSON file of runs.
func appendRecord(path string, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
