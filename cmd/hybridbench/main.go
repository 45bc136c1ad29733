// Command hybridbench regenerates the paper's tables and figures on the
// simulated system.
//
// Usage:
//
//	hybridbench -list
//	hybridbench -exp fig14b
//	hybridbench -exp all -scale full -jobs 8
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. Sweep points run on a
// bounded worker pool (-jobs, default all CPUs); output is byte-identical
// for every -jobs value, and timing chatter goes to stderr so stdout can
// be diffed across runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hybridstore/internal/experiments"
	"hybridstore/internal/index"
	"hybridstore/internal/obs"
)

// usageExit prints an error plus flag usage to stderr and exits non-zero.
func usageExit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}

// resolveScale maps the -scale flag to a Scale.
func resolveScale(name string) (experiments.Scale, error) {
	switch name {
	case "full":
		return experiments.FullScale(), nil
	case "small":
		return experiments.SmallScale(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (want full or small)", name)
	}
}

// validIDs renders every registered experiment ID, in paper order, for
// error messages.
func validIDs() string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// resolveTargets maps the -exp flag to experiments, in paper order for
// "all" and in the given order for a comma-separated list. Every ID is
// validated against the experiment registry up front, so a typo fails
// immediately with the full list of valid names instead of surfacing
// mid-suite.
func resolveTargets(expFlag string) ([]experiments.Experiment, error) {
	if expFlag == "all" {
		return experiments.All(), nil
	}
	var targets []experiments.Experiment
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, fmt.Errorf("empty experiment ID in -exp %q; use -list for details, or one of: %s", expFlag, validIDs())
		}
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; use -list for details, or one of: %s", id, validIDs())
		}
		targets = append(targets, e)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no experiments selected by -exp %q; use -list for details, or one of: %s", expFlag, validIDs())
	}
	return targets, nil
}

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment ID to run (see -list), comma-separated list, or 'all'")
		scaleFlag = flag.String("scale", "full", "workload scale: 'full' or 'small'")
		codecFlag = flag.String("codec", "raw", "on-device posting codec: 'raw' or 'gvarint'")
		jobsFlag  = flag.Int("jobs", runtime.NumCPU(), "max sweep points run concurrently (must be >= 1)")
		listFlag  = flag.Bool("list", false, "list experiments and exit")
		traceFlag = flag.String("trace", "", "write NDJSON query traces from every measured run to this file (forces -jobs 1)")
		profFlag  = flag.String("profile", "", "write simulated-time latency profiles, one pair per experiment: <base>.<exp>.pb.gz (pprof) and <base>.<exp>.folded (flamegraph stacks)")
		cpuFlag   = flag.String("cpuprofile", "", "write a host CPU profile of the runner to this file")
		memFlag   = flag.String("memprofile", "", "write a host heap profile of the runner to this file at exit")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	if args := flag.Args(); len(args) > 0 {
		usageExit("unexpected argument %q", args[0])
	}
	if *jobsFlag < 1 {
		usageExit("-jobs must be >= 1, got %d", *jobsFlag)
	}

	sc, err := resolveScale(*scaleFlag)
	if err != nil {
		usageExit("%v", err)
	}
	sc.Jobs = *jobsFlag
	codec, err := index.ParseCodec(*codecFlag)
	if err != nil {
		usageExit("%v", err)
	}
	sc.Codec = codec

	targets, err := resolveTargets(*expFlag)
	if err != nil {
		usageExit("%v", err)
	}

	if *traceFlag != "" {
		if *jobsFlag > 1 {
			fmt.Fprintln(os.Stderr, "note: -trace serializes execution (running with -jobs 1)")
		}
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := bufio.NewWriterSize(f, 1<<20)
		sc.Obs = obs.New(obs.Options{TraceOut: w})
		defer func() {
			if err := w.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			if err := sc.Obs.Tracer.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "trace stream: %v\n", err)
			}
			fmt.Printf("wrote %d trace records to %s\n", sc.Obs.Tracer.Completed(), *traceFlag)
		}()
	}

	// Host-side profiling of the runner itself (the simulated-time profiles
	// of -profile are a separate, deterministic artifact).
	stopCPU := func() {}
	if *cpuFlag != "" {
		f, err := os.Create(*cpuFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			fmt.Fprintf(os.Stderr, "wrote host CPU profile to %s\n", *cpuFlag)
		}
		defer stopCPU()
	}

	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	defer out.Flush()
	suiteStart := time.Now() //hybridlint:allow detclock host wall-clock progress timing on stderr; never enters simulated results
	for _, e := range targets {
		fmt.Fprintf(out, "==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now() //hybridlint:allow detclock host wall-clock progress timing on stderr; never enters simulated results
		if *profFlag != "" {
			sc.Profile = obs.NewProfile()
		}
		if err := e.Run(out, sc); err != nil {
			out.Flush()
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			stopCPU()
			os.Exit(1)
		}
		if *profFlag != "" {
			// One pair per experiment, rooted at its ID; same seed, same
			// bytes, at any -jobs count.
			pbPath, foldedPath := *profFlag+"."+e.ID+".pb.gz", *profFlag+"."+e.ID+".folded"
			if err := sc.Profile.WriteFiles(pbPath, foldedPath, e.ID); err != nil {
				out.Flush()
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.ID, err)
				stopCPU()
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote latency profile %s (+ %s)\n", pbPath, foldedPath)
		}
		fmt.Fprintln(out)
		out.Flush()
		//hybridlint:allow detclock host wall-clock progress timing on stderr; never enters simulated results
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *memFlag != "" {
		f, err := os.Create(*memFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote host heap profile to %s\n", *memFlag)
	}
	images, builds, bytes := experiments.ArtifactStats()
	//hybridlint:allow detclock host wall-clock progress timing on stderr; never enters simulated results
	fmt.Fprintf(os.Stderr, "suite completed in %v (jobs=%d; artifact cache: %d index builds for %d specs, %.1f MiB retained)\n",
		time.Since(suiteStart).Round(time.Millisecond), sc.Jobs, builds, images, float64(bytes)/(1<<20))
}
