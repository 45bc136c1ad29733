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

// TestAllocBudgetForeignSites runs the gate on the fixture package a, which
// instantiates slices.Grow and b.Box. The compiler reports those bodies'
// escapes in slices.go — no such file in a, which used to abort the gate —
// and in b's helper.go, whose namesake in a holds Quiet on the same lines,
// which used to charge Quiet. Both must come back as foreign sites, and
// only the copies inlined at the calls in Grows and Boxes may be counted.
func TestAllocBudgetForeignSites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -gcflags=-m over the fixture packages")
	}
	const fixture = "hybridstore/internal/analysis/testdata/src/allocbudget/"
	seeded := seedBudget(t, fixture+"a Quiet 0\n"+ // must stay clean
		fixture+"a Grows 4\n"+ // the inlined copy's panic string + make (go1.24), with slack for other compilers
		fixture+"a Boxes 0\n") // x moved to heap at the call: must fire

	diags, foreign, err := RunAllocBudget(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "function Boxes has 1 heap escapes") {
		t.Errorf("want exactly Boxes over budget, got %v", diags)
	}
	var inSlices, inB bool
	for _, f := range foreign {
		if f.Pkg != fixture+"a" {
			t.Errorf("foreign site %+v not attributed to the build of package a", f)
		}
		switch f.File {
		case "slices/slices.go":
			inSlices = true
		case fixture + "b/helper.go":
			inB = true
			quiet, err := findFuncInDir(map[string][]*funcRange{}, filepath.Join("testdata", "src", "allocbudget", "a"), "Quiet")
			if err != nil || quiet == nil {
				t.Fatalf("fixture function Quiet not found: %v", err)
			}
			if len(f.Lines) != 1 || f.Lines[0] < quiet.from || f.Lines[0] > quiet.to {
				t.Errorf("fixture drifted: b.Box escapes on helper.go lines %v, want one line inside Quiet's %d-%d in a's helper.go", f.Lines, quiet.from, quiet.to)
			}
		default:
			t.Errorf("unexpected foreign site %+v", f)
		}
	}
	if !inSlices || !inB {
		t.Errorf("foreign sites in slices.go: %v, in b/helper.go: %v; want both (got %v)", inSlices, inB, foreign)
	}
}

// gateFromRepoRoot requires the committed allocbudget.txt to be clean; the
// go commands run in the module root, where the file lives.
func gateFromRepoRoot(t *testing.T) {
	t.Helper()
	committed, _, err := RunAllocBudget(filepath.Join("..", "..", BudgetFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range committed {
		t.Errorf("committed budget not clean: %s", d)
	}
}

// seedBudget writes a budget file into this package's directory, which is
// then the go commands' working directory (it has to be inside the module),
// and removes it when the test ends.
func seedBudget(t *testing.T, content string) string {
	t.Helper()
	f, err := os.CreateTemp(".", "allocbudget_seed_*.txt")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Remove(f.Name()) })
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// gateFromAnalysisDir runs the gate on a budget file seeded in this
// package's directory.
func gateFromAnalysisDir(t *testing.T) {
	t.Helper()
	seeded := seedBudget(t, "hybridstore/internal/index (*BlockCursor).Decode 0\n"+ // has an escape on its error path: must fire
		"hybridstore/internal/index (*BlockCursor).Reset 0\n"+ // genuinely zero-escape: must stay clean
		"hybridstore/internal/index NoSuchFunction 0\n") // stale entry: must fire at the budget file

	diags, _, err := RunAllocBudget(seeded)
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
			if d.Pos.Filename != seeded || d.Pos.Line != 3 {
				t.Errorf("stale entry reported at %s:%d, want %s:3", d.Pos.Filename, d.Pos.Line, seeded)
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
