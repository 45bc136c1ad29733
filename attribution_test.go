package hybrid

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/obs"
	"hybridstore/internal/storage"
)

// checkAttributionContract runs n queries on sys with observability on and
// asserts the attribution contract for every completed trace: the
// per-component sums equal the simulated elapsed time exactly, and span
// durations never exceed it.
func checkAttributionContract(t *testing.T, sys *System, n int) {
	t.Helper()
	var buf bytes.Buffer
	o := obs.New(obs.Options{TraceOut: &buf})
	sys.EnableObservability(o)
	if _, err := sys.Run(n); err != nil {
		t.Fatal(err)
	}
	traces := readTraces(t, &buf)
	if len(traces) != n {
		t.Fatalf("got %d traces, want %d", len(traces), n)
	}
	var sumElapsed int64
	for _, tr := range traces {
		if tr.Attrib == nil {
			t.Fatalf("seq %d: trace lacks attribution", tr.Seq)
		}
		if got := tr.Attrib.Sum(); got != tr.ElapsedNS {
			t.Fatalf("seq %d: attribution sums to %dns, elapsed %dns (off by %d)",
				tr.Seq, got, tr.ElapsedNS, tr.ElapsedNS-got)
		}
		var spanSum int64
		for _, s := range tr.Spans {
			spanSum += s.DurNS
		}
		if spanSum > tr.ElapsedNS {
			t.Fatalf("seq %d: span durations %d exceed elapsed %d", tr.Seq, spanSum, tr.ElapsedNS)
		}
		sumElapsed += tr.ElapsedNS
	}
	// The folded profile agrees with the traces it was folded from.
	queries, elapsedNS, attrib := o.Profile().Totals()
	if queries != int64(n) || elapsedNS != sumElapsed || attrib.Sum() != sumElapsed {
		t.Fatalf("profile totals queries=%d elapsed=%d attrib=%d, want %d/%d/%d",
			queries, elapsedNS, attrib.Sum(), n, sumElapsed, sumElapsed)
	}
}

// readTraces decodes the NDJSON trace stream an observer wrote to buf.
func readTraces(t *testing.T, buf *bytes.Buffer) []obs.QueryTrace {
	t.Helper()
	var out []obs.QueryTrace
	dec := json.NewDecoder(buf)
	for dec.More() {
		var tr obs.QueryTrace
		if err := dec.Decode(&tr); err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestAttributionSumsToElapsed is the attribution≡elapsed contract across
// every cache mode and index placement: labels are applied at the clock,
// so no configuration may leak unattributed (or double-counted) time.
func TestAttributionSumsToElapsed(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"twolevel-cbslru", smallConfig(core.PolicyCBSLRU, CacheTwoLevel)},
		{"twolevel-lru", smallConfig(core.PolicyLRU, CacheTwoLevel)},
		{"onelevel", smallConfig(core.PolicyCBLRU, CacheOneLevel)},
		{"nocache", smallConfig(core.PolicyCBLRU, CacheNone)},
	}
	ssd := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	ssd.IndexOn = IndexOnSSD
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"index-on-ssd", ssd})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAttributionContract(t, sys, 400)
		})
	}
}

// TestAttributionUnderFaultInjection: injected errors, latency spikes and
// degraded-mode serving must not break the contract — every charged
// nanosecond still lands in exactly one component.
func TestAttributionUnderFaultInjection(t *testing.T) {
	cfg := smallConfig(core.PolicyCBLRU, CacheTwoLevel)
	cfg.CacheFaults = storage.FaultSpec{
		Seed:       5,
		Read:       storage.OpFaults{ErrProb: 0.02, SlowProb: 0.02},
		Write:      storage.OpFaults{ErrProb: 0.02},
		Trim:       storage.OpFaults{ErrProb: 0.02},
		StickyProb: 0.25,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAttributionContract(t, sys, 800)
	if st := sys.Manager.Stats(); st.SSDReadErrors+st.SSDWriteErrors+st.SSDTrimErrors == 0 {
		t.Fatal("fault sweep injected nothing — contract not exercised under faults")
	}
}

// TestAttributionReportSections: with observability on, both report forms
// carry the per-situation attribution table and its shares sum to ~1.
func TestAttributionReportSections(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableObservability(obs.New(obs.Options{}))
	if _, err := sys.Run(300); err != nil {
		t.Fatal(err)
	}
	r := sys.BuildReport()
	if len(r.Attribution) == 0 {
		t.Fatal("JSON report lacks attribution table")
	}
	var share float64
	for _, row := range r.Attribution {
		if row.Components.Sum() != row.TotalNS {
			t.Fatalf("situation %s: components sum %d != total %d",
				row.Situation, row.Components.Sum(), row.TotalNS)
		}
		share += row.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("attribution shares sum to %v", share)
	}
	text := sys.Report()
	if !strings.Contains(text, "latency attribution:") {
		t.Fatalf("text report lacks attribution section:\n%s", text)
	}
}

// TestProgressSurvivesRestartWarm: after RestartWarm swaps the manager,
// Progress must read the new manager's counters, not a captured stale one
// — and clock attribution must keep working on the swapped system.
func TestProgressSurvivesRestartWarm(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sys.EnableObservability(obs.New(obs.Options{TraceOut: &buf}))
	if _, err := sys.Run(400); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveCacheMappings(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartWarm(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	oldManager := sys.Manager
	if _, err := sys.Run(200); err != nil {
		t.Fatal(err)
	}
	if sys.Manager != oldManager {
		t.Fatal("manager swapped again mid-run?")
	}

	st := sys.Manager.Stats()
	p := sys.Progress()
	if p.RC != st.ResultHitRatio() || p.IC != st.ListHitRatio() || p.RIC != st.CombinedHitRatio() {
		t.Fatalf("Progress RC/IC/RIC = %v/%v/%v, restored manager says %v/%v/%v (stale manager?)",
			p.RC, p.IC, p.RIC, st.ResultHitRatio(), st.ListHitRatio(), st.CombinedHitRatio())
	}
	if st.Queries != 200 {
		t.Fatalf("restored manager counted %d queries, want 200", st.Queries)
	}

	// Attribution still exact on the restarted system (the clock hook
	// survives because RestartWarm keeps the clock).
	traces := readTraces(t, &buf)
	if len(traces) != 200 {
		t.Fatalf("got %d traces after RestartWarm, want 200", len(traces))
	}
	for _, tr := range traces {
		if tr.Attrib == nil || tr.Attrib.Sum() != tr.ElapsedNS {
			t.Fatalf("seq %d: attribution broken after RestartWarm", tr.Seq)
		}
	}
}

// TestReportSeries: a run of N queries sampled every k queries carries
// ⌊N/k⌋ series points in its JSON report. When k divides N the last point
// is the report's own hit ratios and wear, and forks of one observer keep
// their series private to their own system.
func TestReportSeries(t *testing.T) {
	const k = 100
	parent := obs.New(obs.Options{SampleEvery: k})
	for _, n := range []int{450, 300} {
		sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableObservability(parent.Fork())
		if _, err := sys.Run(n); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.WriteJSONReport(&buf); err != nil {
			t.Fatal(err)
		}
		var r JSONReport
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Series) != n/k {
			t.Fatalf("N=%d: %d series points, want %d", n, len(r.Series), n/k)
		}
		if n%k != 0 {
			continue
		}
		last, h, w := r.Series[len(r.Series)-1], r.HitRatios, r.Wear["cache-ssd"]
		if last.RC != h.RC || last.IC != h.IC || last.RIC != h.RIC ||
			last.SSDErases != w.Erases || last.SSDWriteAmp != w.WriteAmplification {
			t.Fatalf("N=%d: last point %+v, report says hit ratios %+v, wear %+v", n, last, *h, w)
		}
	}
}
