package analysis_test

import (
	"testing"

	"hybridstore/internal/analysis"
	"hybridstore/internal/analysis/analysistest"
	"hybridstore/internal/analysis/goloader"
)

func TestDetclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), "detclock/a", analysis.Detclock)
}

func TestMapiter(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "mapiter/experiments", analysis.Mapiter)
	analysistest.Run(t, td, "mapiter/other", analysis.Mapiter)
	analysistest.Run(t, td, "mapiter/flashsim", analysis.Mapiter)
}

func TestStatsevent(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "statsevent/core", analysis.Statsevent)
	analysistest.Run(t, td, "statsevent/missing", analysis.Statsevent)
}

func TestIoerr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), "ioerr/a", analysis.Ioerr)
}

// TestAttrib covers the Σattrib≡elapsed analyzer: call sites must pass
// declared Component constants (attrib/a), the bare-call allowlist
// suppresses by package path (attrib/allowedpkg), and the componentTable /
// summaryOrder declarations must be total (attrib/badtable, attrib/notable,
// attrib/order; attrib/clockpkg is the clean shape).
func TestAttrib(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "attrib/clockpkg", analysis.Attrib)
	analysistest.Run(t, td, "attrib/a", analysis.Attrib)
	analysistest.Run(t, td, "attrib/allowedpkg", analysis.Attrib)
	analysistest.Run(t, td, "attrib/badtable", analysis.Attrib)
	analysistest.Run(t, td, "attrib/notable", analysis.Attrib)
	analysistest.Run(t, td, "attrib/order", analysis.Attrib)
}

// TestBufalias covers the zero-copy lifetime analyzer: every escape of a
// device-loaned buffer in bufalias/a is a finding, the in-place decode and
// copy flows are not, and the annotated owner type (bufalias/index) may
// retain the loan.
func TestBufalias(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "bufalias/a", analysis.Bufalias)
	analysistest.Run(t, td, "bufalias/index", analysis.Bufalias)
}

// TestConfine covers shard confinement: cross-shard reach and
// unsynchronized captured-state writes in concurrent closures are findings;
// the bound-at-creation, per-slot, and mutex idioms are not.
func TestConfine(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "confine/serve", analysis.Confine)
	analysistest.Run(t, td, "confine/experiments", analysis.Confine)
}

// TestAllowDirectiveAudit proves the escape hatch polices itself: a
// directive without a reason is a finding (and does not suppress), as are
// unknown analyzer names and directives with nothing left to suppress.
func TestAllowDirectiveAudit(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), "allowdir/a", analysis.Detclock)
}

// TestAllowStaleScope proves the audit catches directives that can never
// fire because the named analyzer does not inspect the surrounding package,
// and that allocbudget rejects the directive mechanism entirely.
func TestAllowStaleScope(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, "allowdir/stale", analysis.Confine)
	analysistest.Run(t, td, "allowdir/storage", analysis.Bufalias)
}

// TestRepoIsClean runs the full suite over the real module, so `go test`
// enforces the three contracts even when the CI lint job is skipped.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	pkgs, err := goloader.Load("hybridstore/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, d := range analysis.Run(pkg, analysis.All()) {
			t.Errorf("%s", d)
		}
	}
}
