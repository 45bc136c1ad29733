// Command hybridlint runs the repository's contract-enforcing static
// analyzers (internal/analysis) over the given package patterns:
//
//	go run ./cmd/hybridlint ./...
//
// Analyzers:
//
//	detclock     simulated time/randomness must flow through internal/simclock
//	mapiter      output paths and device simulators must not range over maps
//	             in randomized order
//	ioerr        storage-layer errors and allocator results must be handled
//	bufalias     device-loaned buffers may not outlive the read call
//	             (zero-copy lifetime)
//	confine      concurrent closures in serve/experiments touch only state
//	             bound at creation (shard confinement)
//	allocbudget  hot-path functions stay within the committed escape-analysis
//	             budget in allocbudget.txt (runs `go build -gcflags=-m`)
//
// Flags:
//
//	-json             one JSON object per finding (analyzer, file, line,
//	                  col, message), for CI annotations; text mode is
//	                  byte-stable
//	-timing           per-analyzer wall time to stderr
//	-allocbudget=M    "auto" (default: run when allocbudget.txt exists at
//	                  the module root), "off", or an explicit budget file
//
// Findings can be suppressed with a justified directive on (or alone on
// the line above) the offending line:
//
//	//hybridlint:allow <analyzer> <reason>
//
// hybridlint audits the directives themselves: a missing reason, an
// unknown analyzer name, a directive naming an analyzer that never inspects
// the surrounding package, or a directive that no longer suppresses
// anything is a finding. allocbudget has no directive escape hatch at all —
// its budget file is the reviewable override. Exit status is 1 when any
// finding survives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"hybridstore/internal/analysis"
	"hybridstore/internal/analysis/goloader"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of text")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	budgetMode := flag.String("allocbudget", "auto", `escape-analysis budget gate: "auto", "off", or a budget file path`)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hybridlint [-json] [-timing] [-allocbudget=auto|off|FILE] [packages]\n\nRuns the hybridstore contract analyzers (detclock, mapiter, ioerr, bufalias,\nconfine, allocbudget) over the given go-list package patterns\n(default ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := goloader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybridlint: %v\n", err)
		os.Exit(2)
	}

	analyzers := analysis.All()
	elapsed := make(map[string]time.Duration, len(analyzers)+1)
	if *timing {
		for _, a := range analyzers {
			inner := a.Run
			name := a.Name
			a.Run = func(p *analysis.Pass) {
				//hybridlint:allow detclock host-side wall time measuring the linter itself, never simulated state
				t0 := time.Now()
				inner(p)
				//hybridlint:allow detclock host-side wall time measuring the linter itself, never simulated state
				elapsed[name] += time.Since(t0)
			}
		}
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Run(pkg, analyzers)...)
	}

	if *budgetMode != "off" {
		path, ok := budgetFile(*budgetMode)
		if ok {
			//hybridlint:allow detclock host-side wall time measuring the linter itself, never simulated state
			t0 := time.Now()
			budgetDiags, foreign, err := analysis.RunAllocBudget(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hybridlint: %s: %v\n", analysis.AllocBudgetName, err)
				os.Exit(2)
			}
			for _, f := range foreign {
				fmt.Fprintf(os.Stderr, "hybridlint: %s: note: %s instantiates generic functions of %s whose escapes (lines %v) no budget counts\n",
					analysis.AllocBudgetName, f.Pkg, f.File, f.Lines)
			}
			//hybridlint:allow detclock host-side wall time measuring the linter itself, never simulated state
			elapsed[analysis.AllocBudgetName] = time.Since(t0)
			diags = append(diags, budgetDiags...)
		}
	}

	if *timing {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "hybridlint: timing %-12s %v\n", a.Name, elapsed[a.Name].Round(time.Microsecond))
		}
		if d, ok := elapsed[analysis.AllocBudgetName]; ok {
			fmt.Fprintf(os.Stderr, "hybridlint: timing %-12s %v\n", analysis.AllocBudgetName, d.Round(time.Microsecond))
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hybridlint: %v\n", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hybridlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// A jsonDiag is the -json wire form of one finding, one object per line.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// budgetFile resolves the -allocbudget flag to a budget file path. In auto
// mode the gate runs exactly when the module root has a committed
// allocbudget.txt; an explicit path must exist.
func budgetFile(mode string) (string, bool) {
	if mode != "auto" {
		return mode, true
	}
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", false
	}
	path := filepath.Join(strings.TrimSpace(string(out)), analysis.BudgetFileName)
	if _, err := os.Stat(path); err != nil {
		return "", false
	}
	return path, true
}
