package hybrid

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/metrics"
	"hybridstore/internal/obs"
	"hybridstore/internal/storage"
)

// TestLiveLineMatchesReport: the live line printed after the last query of
// a run sampled every k queries shows the same p50/p95/p99 as Report's
// latency line, since both round one summary of one histogram.
func TestLiveLineMatchesReport(t *testing.T) {
	const k, n = 100, 600
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{SampleEvery: k})
	sys.EnableObservability(o)
	if _, err := sys.Run(n); err != nil {
		t.Fatal(err)
	}
	// The check needs a quantile that rounds up: truncating it would then
	// print a different number than rounding it.
	lat := o.OverallLatency()
	roundsUp := false
	for _, q := range []float64{lat.P50, lat.P95, lat.P99} {
		roundsUp = roundsUp || q-math.Floor(q) >= 0.5
	}
	if !roundsUp {
		t.Fatalf("no quantile of %+v rounds up: the run cannot tell rounding from truncation", lat)
	}

	quantiles := regexp.MustCompile(`p50=\S+ p95=\S+ p99=\S+`)
	live := o.Latest().Line(lat)
	if !strings.HasPrefix(live, fmt.Sprintf("q=%d ", n)) {
		t.Fatalf("live line %q is not the sample after query %d", live, n)
	}
	var report string
	for _, line := range strings.Split(sys.Report(), "\n") {
		if strings.HasPrefix(line, "latency (all queries):") {
			report = quantiles.FindString(line)
		}
	}
	if got := quantiles.FindString(live); got == "" || got != report {
		t.Fatalf("live line shows %q, report shows %q", got, report)
	}
}

// TestReportRendersBuildReport: every number on Report's situation, device
// and wear lines is the BuildReport field it comes from, each situation
// with queries and each device has its line, and every time prints as
// milliseconds with three decimals. The run must have a situation mean
// whose last µs digit is zero (S5's T=3.080ms), which Duration.String
// would print as 3.08ms, or it cannot show the fixed digits.
func TestReportRendersBuildReport(t *testing.T) {
	cfg := smallConfig(core.PolicyCBSLRU, CacheTwoLevel)
	cfg.IndexOn = IndexOnSSD // adds the index SSD's device and wear lines
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableObservability(obs.New(obs.Options{}))
	if _, err := sys.WarmupStatic(400); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400); err != nil {
		t.Fatal(err)
	}
	r := sys.BuildReport()
	lines := strings.Split(sys.Report(), "\n")

	num := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ms := metrics.FormatMS

	sitLine := regexp.MustCompile(`^  (\S+)\s+P=(\S+) T=(\S+) p50=(\S+) p95=(\S+) p99=(\S+)$`)
	seen, zeroDigit := map[string]bool{}, false
	for _, line := range lines {
		m := sitLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		seen[m[1]] = true
		var row *SituationReport
		for i := range r.Situations {
			if r.Situations[i].Name == m[1] {
				row = &r.Situations[i]
			}
		}
		if row == nil || row.Latency == nil {
			t.Fatalf("line %q: no situation with latencies %q in BuildReport", line, m[1])
		}
		p, err := strconv.ParseFloat(m[2], 64)
		if err != nil || math.Abs(p-row.P) > 5e-5 || m[3] != ms(float64(row.MeanUS)) ||
			m[4] != ms(row.Latency.P50) || m[5] != ms(row.Latency.P95) || m[6] != ms(row.Latency.P99) {
			t.Fatalf("line %q, BuildReport has P=%v mean_us=%d latency %+v", line, row.P, row.MeanUS, *row.Latency)
		}
		zeroDigit = zeroDigit || row.MeanUS%10 == 0
	}
	if !zeroDigit {
		t.Fatal("no situation mean ends in a zero µs digit: the run cannot tell fixed digits from trimmed ones")
	}
	for _, row := range r.Situations {
		if (row.Count > 0) != seen[row.Name] {
			t.Fatalf("situation %s with %d queries: printed %v", row.Name, row.Count, seen[row.Name])
		}
	}

	devLine := regexp.MustCompile(`^(\S+): reads=(\d+) writes=(\d+) bytesR=(\d+) bytesW=(\d+) avg_access=(\S+)$`)
	wearLine := regexp.MustCompile(`^(\S+) wear: erases=(\d+)(?: gc_copies=(\d+))? WA=(\S+)(?: free_blocks=(\d+))?$`)
	var devices, wears []string
	for _, line := range lines {
		if m := devLine.FindStringSubmatch(line); m != nil {
			d := r.Devices[len(devices)]
			devices = append(devices, m[1])
			if m[1] != d.Name || num(m[2]) != d.Reads || num(m[3]) != d.Writes || num(m[4]) != d.BytesRead ||
				num(m[5]) != d.BytesWrit || m[6] != ms(float64(d.AvgAccessUS)) {
				t.Fatalf("line %q, BuildReport has %+v", line, d)
			}
		}
		if m := wearLine.FindStringSubmatch(line); m != nil {
			wears = append(wears, m[1])
			w, ok := r.Wear[m[1]]
			if !ok || num(m[2]) != w.Erases || m[4] != fmt.Sprintf("%.3f", w.WriteAmplification) ||
				(m[3] != "" && num(m[3]) != w.GCPageCopies) || (m[5] != "" && num(m[5]) != int64(w.FreeBlocks)) {
				t.Fatalf("line %q, BuildReport has %+v", line, w)
			}
		}
	}
	if len(devices) != len(r.Devices) || len(wears) != len(r.Wear) || len(wears) != 2 {
		t.Fatalf("printed devices %v and wear %v, BuildReport has %d devices and wear of %d",
			devices, wears, len(r.Devices), len(r.Wear))
	}
}

// TestReportRoundsMicroseconds: the report's µs integers — the mean response
// time, each situation's mean and each device's average access time — round
// their Durations to the microsecond like every latency summary, where
// Duration.Microseconds would truncate. The run must have at least one of
// them with a sub-µs part of 500 ns or more, or it shows nothing.
func TestReportRoundsMicroseconds(t *testing.T) {
	sys, err := New(smallConfig(core.PolicyCBLRU, CacheTwoLevel))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(400); err != nil {
		t.Fatal(err)
	}
	r := sys.BuildReport()
	st := sys.Manager.Stats()
	roundsUp := 0
	check := func(what string, got int64, d time.Duration) {
		t.Helper()
		if want := metrics.RoundUS(d); got != want {
			t.Errorf("%s = %d µs, want %v rounded to %d", what, got, d, want)
		}
		if d%time.Microsecond >= 500*time.Nanosecond {
			roundsUp++
		}
	}
	check("mean_response_us", r.MeanResponseUS, st.MeanQueryTime())
	for i, row := range st.Situations.Table() {
		check(r.Situations[i].ID+" mean_us", r.Situations[i].MeanUS, row.MeanTime)
	}
	for _, d := range r.Devices {
		var ds storage.DeviceStats
		switch d.Name {
		case "hdd":
			ds = sys.HDD.Stats()
		case "cache-ssd":
			ds = sys.CacheSSD.Stats()
		default:
			t.Fatalf("unexpected device %q", d.Name)
		}
		check(d.Name+" avg_access_us", d.AvgAccessUS, ds.AvgAccessTime())
	}
	if roundsUp == 0 {
		t.Fatal("no field of this run has a sub-µs part of 500 ns or more")
	}
}
