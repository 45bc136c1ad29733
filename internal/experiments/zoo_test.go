package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridstore/internal/core"
)

// update rewrites testdata/*.golden from the current output instead of
// comparing against it: go test ./internal/experiments -update. Commit the
// result only for a change that intends to move simulated numbers, and let
// the diff of the golden files show which rows moved.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current microScale output")

// render runs one experiment at the given scale and returns its stdout.
func render(t *testing.T, id string, sc Scale) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runMicro renders one experiment at microScale with the given worker count.
func runMicro(t *testing.T, id string, jobs int) string {
	t.Helper()
	sc := microScale()
	sc.Jobs = jobs
	return render(t, id, sc)
}

// checkGolden renders experiment id at microScale with one and with four
// workers, requires the two to be byte-identical (every point is an
// independent deterministic system and rows are assembled in point order),
// and compares the bytes with the committed testdata/<id>.golden. A mismatch
// means simulated behaviour moved: re-capture with -update only for a change
// that intends to move it, and say so. It returns the output.
func checkGolden(t *testing.T, id string) string {
	t.Helper()
	out := runMicro(t, id, 1)
	if out4 := runMicro(t, id, 4); out != out4 {
		t.Fatalf("%s output differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", id, out, out4)
	}
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -update to create it)", err)
	}
	if out != string(want) {
		t.Fatalf("%s microScale output differs from %s:\n--- golden\n%s\n--- got\n%s", id, path, want, out)
	}
	return out
}

// TestZooByteIdenticalAcrossJobs: the zoo sweep renders the golden bytes at
// any worker count — the per-policy form of the suite-wide -jobs guarantee —
// and covers every registered policy and the heterogeneous tier.
func TestZooByteIdenticalAcrossJobs(t *testing.T) {
	out := checkGolden(t, "zoo")
	for _, info := range core.Policies() {
		if !strings.Contains(out, info.Name) {
			t.Fatalf("policy %q missing from zoo output:\n%s", info.Name, out)
		}
	}
	if !strings.Contains(out, "hetero") {
		t.Fatalf("heterogeneous tier section missing:\n%s", out)
	}
}

// TestPolicyExperimentsMatchGolden pins the other three experiments that
// compare policies (hit ratio, response time, behaviour under injected
// faults) to their golden bytes, at one and several workers. fig14b holds
// hit ratios only: a change to what waiting costs must leave it untouched.
func TestPolicyExperimentsMatchGolden(t *testing.T) {
	for _, id := range []string{"fig14b", "fig17", "faults"} {
		t.Run(id, func(t *testing.T) { checkGolden(t, id) })
	}
}
