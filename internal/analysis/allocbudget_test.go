package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# hybridstore/internal/engine",
		"internal/engine/engine.go:79:6: can inline (*Config).fillDefaults",
		"internal/engine/engine.go:239:20: make([]byte, n) escapes to heap",
		"internal/engine/conjunctive.go:193:6: moved to heap: stats",
		"internal/engine/engine.go:173:18: inlining call to math.Log2",
		"not a diagnostic line",
		"",
	}, "\n")
	sites := parseEscapeOutput(out)
	if len(sites) != 2 {
		t.Fatalf("got %d escape sites, want 2: %v", len(sites), sites)
	}
	if sites[0].file != "internal/engine/engine.go" || sites[0].line != 239 {
		t.Errorf("site 0 = %+v, want engine.go:239", sites[0])
	}
	if sites[1].file != "internal/engine/conjunctive.go" || sites[1].line != 193 {
		t.Errorf("site 1 = %+v, want conjunctive.go:193", sites[1])
	}
}

func TestParseBudgetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocbudget.txt")
	content := "# header comment\n\nhybridstore/internal/engine (*Engine).Execute 6 # rationale\npkg Fn 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ParseBudgetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %v", len(entries), entries)
	}
	want := BudgetEntry{Pkg: "hybridstore/internal/engine", Func: "(*Engine).Execute", Max: 6, Line: 3}
	if entries[0] != want {
		t.Errorf("entry 0 = %+v, want %+v", entries[0], want)
	}
	if entries[1].Line != 4 || entries[1].Max != 0 {
		t.Errorf("entry 1 = %+v, want line 4 budget 0", entries[1])
	}

	for _, bad := range []string{"pkg Fn\n", "pkg Fn -1\n", "pkg Fn many\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseBudgetFile(path); err == nil {
			t.Errorf("budget line %q parsed without error", strings.TrimSpace(bad))
		}
	}
}

// TestAllocBudgetGate drives the real gate end to end against this module:
// a zero budget on a function with known escapes must fire, a stale entry
// must fire at the budget file, and the committed allocbudget.txt at the
// module root must be clean (the allocbudget half of TestRepoIsClean).
func TestAllocBudgetGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -gcflags=-m over hot-path packages")
	}
	gateFromAnalysisDir(t)
	gateFromRepoRoot(t)
}

// TestAllocBudgetGateColdCache runs the gate from both directories against
// one empty build cache. The compiler prints -m paths relative to the
// invoking directory and the cache replays whichever spelling it recorded
// first, so the run from the repo root reads paths spelled for this
// directory — the order that used to fail with "open <repo-parent>/index/...".
func TestAllocBudgetGateColdCache(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the hot-path packages' dependencies from an empty GOCACHE")
	}
	t.Setenv("GOCACHE", t.TempDir())
	gateFromAnalysisDir(t)
	gateFromRepoRoot(t)
}

// gateFromRepoRoot requires the committed allocbudget.txt to be clean; the
// go commands run in the module root, where the file lives.
func gateFromRepoRoot(t *testing.T) {
	t.Helper()
	committed, err := RunAllocBudget(filepath.Join("..", "..", BudgetFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range committed {
		t.Errorf("committed budget not clean: %s", d)
	}
}

// gateFromAnalysisDir runs the gate on a seeded budget file in this
// package's directory, which is then the go commands' working directory.
func gateFromAnalysisDir(t *testing.T) {
	t.Helper()
	seeded, err := os.CreateTemp(".", "allocbudget_seed_*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(seeded.Name())
	content := "hybridstore/internal/index (*BlockCursor).Decode 0\n" + // has an escape on its error path: must fire
		"hybridstore/internal/index (*BlockCursor).Reset 0\n" + // genuinely zero-escape: must stay clean
		"hybridstore/internal/index NoSuchFunction 0\n" // stale entry: must fire at the budget file
	if _, err := seeded.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := seeded.Close(); err != nil {
		t.Fatal(err)
	}

	diags, err := RunAllocBudget(seeded.Name())
	if err != nil {
		t.Fatal(err)
	}
	var overBudget, stale bool
	for _, d := range diags {
		if d.Analyzer != AllocBudgetName {
			t.Errorf("diagnostic under analyzer %q, want %q", d.Analyzer, AllocBudgetName)
		}
		switch {
		case strings.Contains(d.Message, "(*BlockCursor).Decode") && strings.Contains(d.Message, "over its committed budget of 0"):
			overBudget = true
		case strings.Contains(d.Message, "(*BlockCursor).Reset"):
			t.Errorf("zero-escape function reported over budget: %s", d)
		case strings.Contains(d.Message, "NoSuchFunction") && strings.Contains(d.Message, "stale"):
			stale = true
			if d.Pos.Filename != seeded.Name() || d.Pos.Line != 3 {
				t.Errorf("stale entry reported at %s:%d, want %s:3", d.Pos.Filename, d.Pos.Line, seeded.Name())
			}
		}
	}
	if !overBudget {
		t.Errorf("zero budget on (*BlockCursor).Decode did not fire; diagnostics: %v", diags)
	}
	if !stale {
		t.Errorf("stale budget entry did not fire; diagnostics: %v", diags)
	}
}
