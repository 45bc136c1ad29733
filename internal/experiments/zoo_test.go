package experiments

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"hybridstore/internal/core"
)

// runMicro renders one experiment at microScale with the given worker count.
func runMicro(t *testing.T, id string, jobs int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	sc := microScale()
	sc.Jobs = jobs
	var buf bytes.Buffer
	if err := e.Run(&buf, sc); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkGolden compares the CRC-32 of an experiment's microScale output with
// the constant captured at 1e4b710, the last commit before the policy seam
// was collapsed into three decisions and one layout. A mismatch means a
// surviving policy's simulated behaviour moved: re-capture only for a change
// that intends to move it, and say so.
func checkGolden(t *testing.T, id, out string, want uint32) {
	t.Helper()
	if got := crc32.ChecksumIEEE([]byte(out)); got != want {
		t.Fatalf("%s microScale output CRC-32 = 0x%08x, golden 0x%08x:\n%s", id, got, want, out)
	}
}

// TestZooByteIdenticalAcrossJobs: every zoo point is an independent
// deterministic system and rows are assembled in point order, so the sweep
// must render byte-identical output at any worker count — the per-policy
// form of the suite-wide -jobs guarantee — and the bytes are the golden ones
// (captured with the sweep restricted to the five surviving policies).
func TestZooByteIdenticalAcrossJobs(t *testing.T) {
	out1 := runMicro(t, "zoo", 1)
	out4 := runMicro(t, "zoo", 4)
	if out1 != out4 {
		t.Fatalf("zoo output differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", out1, out4)
	}
	// Every registered policy must appear in the sweep.
	for _, info := range core.Policies() {
		if !strings.Contains(out1, info.Name) {
			t.Fatalf("policy %q missing from zoo output:\n%s", info.Name, out1)
		}
	}
	if !strings.Contains(out1, "hetero") {
		t.Fatalf("heterogeneous tier section missing:\n%s", out1)
	}
	checkGolden(t, "zoo", out1, 0x052d3c3b)
}

// TestPolicyExperimentsMatchGolden pins the other three experiments that
// compare policies (hit ratio, response time, behaviour under injected
// faults) to their pre-refactor bytes, at one and several workers.
func TestPolicyExperimentsMatchGolden(t *testing.T) {
	for _, g := range []struct {
		id   string
		want uint32
	}{
		{"fig14b", 0x73afb974},
		{"fig17", 0x9ab47e95},
		{"faults", 0x650f19b3},
	} {
		t.Run(g.id, func(t *testing.T) {
			out1 := runMicro(t, g.id, 1)
			if out4 := runMicro(t, g.id, 4); out1 != out4 {
				t.Fatalf("%s output differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", g.id, out1, out4)
			}
			checkGolden(t, g.id, out1, g.want)
		})
	}
}
