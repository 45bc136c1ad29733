package hybrid

import (
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/obs"
	"hybridstore/internal/storage"
)

// TestFaultedRunAccountedEndToEnd is the 1%-error-rate smoke test: a
// two-level system with fault injection on every cache-SSD op class runs a
// query stream without panics or query failures, every injected error is
// visible to the manager, and the loss accounting surfaces through the
// event stream and the JSON report.
func TestFaultedRunAccountedEndToEnd(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.CacheFaults = storage.FaultSpec{
		Seed:       5,
		Read:       0.01,
		Write:      0.01,
		Trim:       0.01,
		StickyProb: 0.25,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.CacheFaults == nil {
		t.Fatal("fault spec set but no injector wired")
	}
	sys.EnableObservability(obs.New(obs.Options{}))
	// A test sink in front of the observer's counts the failed device calls.
	var ioErrors int64
	sys.Manager.SetEventSink(func(e core.Event) {
		if e.Kind == core.EvIOError {
			ioErrors++
		}
		sys.Obs().HandleEvent(e)
	})

	if _, err := sys.Run(1500); err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if err := sys.Manager.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := sys.Manager.Stats()
	managerErrs := st.SSDReadErrors + st.SSDWriteErrors + st.SSDTrimErrors
	if managerErrs == 0 {
		t.Fatal("1% injection produced no visible errors — nothing exercised")
	}

	// Every cache-SSD op flows through the injector, so both sides agree.
	fs := sys.CacheFaults.FaultStats()
	if fs.ReadErrors != st.SSDReadErrors || fs.WriteErrors != st.SSDWriteErrors || fs.TrimErrors != st.SSDTrimErrors {
		t.Fatalf("injector/manager error counts diverge: device %d/%d/%d, stats %d/%d/%d",
			fs.ReadErrors, fs.WriteErrors, fs.TrimErrors,
			st.SSDReadErrors, st.SSDWriteErrors, st.SSDTrimErrors)
	}

	// One EvIOError per failed device call.
	if ioErrors != managerErrs {
		t.Fatalf("%d EvIOError events, stats count %d SSD errors", ioErrors, managerErrs)
	}

	// The JSON report carries the full fault section.
	r := sys.BuildReport()
	if r.Faults == nil {
		t.Fatal("faulted run report lacks Faults section")
	}
	if r.Faults.InjectedReadErrors != fs.ReadErrors ||
		r.Faults.SSDWriteErrors != st.SSDWriteErrors ||
		r.Faults.QuarantinedBytes != st.QuarantinedBytes {
		t.Fatalf("fault report diverges from sources: %+v", r.Faults)
	}
}

// TestZeroFaultSpecWiresNoInjector: the zero value means "no injection" —
// the manager talks to the raw cache device and reports omit the section.
func TestZeroFaultSpecWiresNoInjector(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	if sys.CacheFaults != nil {
		t.Fatal("injector wired without a fault spec")
	}
	if r := sys.BuildReport(); r.Faults != nil {
		t.Fatal("report has Faults section without injection")
	}
}
