package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/analysis"
	"hybridstore/internal/analysis/goloader"
)

// testOptions: one round per timed run unless a test asks for more, spans
// into the test's own directory.
func testOptions(t *testing.T, rounds int) runOptions {
	return runOptions{minRounds: rounds, calReps: 1, outDir: t.TempDir()}
}

// smallStream returns a declared workload at 1/100 size, without its
// experiments.
func smallStream(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("workload %q not declared", name)
	}
	w = w.scaled(100)
	w.Experiments, w.SetupExperiments = nil, nil
	return w
}

func mustRun(t *testing.T, w workloadSpec, seed uint64, trace bool, opt runOptions) report {
	t.Helper()
	// 0.001 s: the round count is what opt.minRounds says.
	rep, err := run(w, seed, 0.001, trace, opt)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d problems=%v",
			w.Name, seed, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
	}
	return rep
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

func emittedNames(rep report) map[string]bool {
	names := make(map[string]bool, len(rep.Metrics))
	for name := range rep.Metrics {
		names[name] = true
	}
	return names
}

// TestManifest checks BENCHMARK.json against the tables it is rendered from
// and against the limits of the driver's contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh manifest > BENCHMARK.json`")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	layers := perLayer()
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layers); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(layers, endToEnd...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range layers {
		checkName(d.Name)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
}

// TestStreamsRepeatExactly: same seed, same simulated numbers and exact
// counts, round after round; another seed, other queries, still correct
// against the oracle.
func TestStreamsRepeatExactly(t *testing.T) {
	for _, name := range []string{"ref_2lc", "hot_results", "churn_lru_gv"} {
		w := smallStream(t, name)
		// Two rounds are two fresh systems; run() fails the report unless
		// their simulated totals are equal.
		a := mustRun(t, w, 0xA01, false, testOptions(t, 2))
		if got, want := emittedNames(a), metricNames(endToEnd); len(got) != len(want) {
			t.Errorf("%s: emitted %d end-to-end metrics, declared %d", name, len(got), len(want))
		}
		for _, d := range endToEnd {
			if v := a.Metrics[d.Name].Value; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", name, d.Name, v)
			}
		}

		c := mustRun(t, w, 0xB02, false, testOptions(t, 1))
		if c.Exact["engine.result_crc32"] == a.Exact["engine.result_crc32"] {
			t.Errorf("%s: another seed produced the same result CRC: the seed does not reach the query log", name)
		}
	}
}

// TestTracedPass: the traced stack simulates exactly what hybrid.New's does
// (run() fails the report otherwise), emits the declared per-layer names,
// and its self-time shares cover the traced window.
func TestTracedPass(t *testing.T) {
	for _, name := range []string{"ref_2lc", "hot_results", "churn_lru_gv"} {
		w := smallStream(t, name)
		opt := testOptions(t, 1)
		rep := mustRun(t, w, 0xA01, true, opt)
		got := emittedNames(rep)
		for _, want := range metricNames(perLayer()) {
			if !got[want] {
				t.Errorf("%s: per-layer metric %s not emitted", name, want)
			}
			delete(got, want)
		}
		for extra := range got {
			t.Errorf("%s: emitted undeclared metric %s", name, extra)
		}
		sum := 0.0
		for _, layer := range []string{"hybrid", "engine", "core", "flashsim", "disksim"} {
			sum += rep.Metrics[layer+".self_share"].Value
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: self-time shares sum to %.4f, want 1 ± 0.02", name, sum)
		}
		spans, err := os.ReadFile(filepath.Join(opt.outDir, w.Name+".spans.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		first := strings.SplitN(string(spans), "\n", 2)[0]
		var span struct {
			Query, ID, Parent int
			Name              string
			StartNS           int64 `json:"start_ns"`
			EndNS             int64 `json:"end_ns"`
		}
		if err := json.Unmarshal([]byte(first), &span); err != nil || span.Name == "" || span.EndNS < span.StartNS {
			t.Errorf("%s: first span line %q does not parse as a span (%v)", name, first, err)
		}
	}
}

// TestTracedStackDriftIsCaught: the equivalence check has teeth. A traced
// stack assembled from a different cache budget must not compare equal.
func TestTracedStackDriftIsCaught(t *testing.T) {
	w := smallStream(t, "ref_2lc")
	elapsed := make([]int64, w.Measure)
	cal := newCalibrator(1)
	timed, err := runPass(w, 0xA01, assembleTimed, elapsed, nil, cal)
	if err != nil {
		t.Fatal(err)
	}
	same, err := runPass(w, 0xA01, assembleTraced, elapsed, nil, cal)
	if err != nil {
		t.Fatal(err)
	}
	if same.win.sim != timed.win.sim {
		t.Fatal("traced and timed stacks disagree on an identical configuration")
	}
	w.MemBytes /= 2
	drifted, err := runPass(w, 0xA01, assembleTraced, elapsed, nil, cal)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.win.sim == timed.win.sim {
		t.Error("halving the memory cache left the simulated totals equal: the check compares too little")
	}
}

// fakeDevice fails every operation with its own error.
type fakeDevice struct {
	err   error
	trims int
}

func (d *fakeDevice) Name() string { return "fake" }
func (d *fakeDevice) Size() int64  { return 1 << 20 }
func (d *fakeDevice) ReadAt(p []byte, off int64) (time.Duration, error) {
	return 3 * time.Microsecond, d.err
}
func (d *fakeDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	return 5 * time.Microsecond, d.err
}
func (d *fakeDevice) Trim(off, n int64) (time.Duration, error) {
	d.trims++
	return 7 * time.Microsecond, d.err
}

// TestDeviceDecoratorForwards: latencies and errors pass through untouched,
// Trim reaches the device, and every call is one span.
func TestDeviceDecoratorForwards(t *testing.T) {
	boom := errors.New("boom")
	for _, wantErr := range []error{nil, boom} {
		dev := &fakeDevice{err: wantErr}
		tr := &tracer{on: true}
		d := &timedTrimDevice{
			timedDevice: timedDevice{dev: dev, tr: tr, read: spanSSDRead, write: spanSSDWrite},
			trimmer:     dev,
			trim:        spanSSDTrim,
		}
		buf := make([]byte, 8)
		if lat, err := d.ReadAt(buf, 0); lat != 3*time.Microsecond || err != wantErr {
			t.Errorf("ReadAt = %v, %v; want 3µs, %v", lat, err, wantErr)
		}
		if lat, err := d.WriteAt(buf, 0); lat != 5*time.Microsecond || err != wantErr {
			t.Errorf("WriteAt = %v, %v; want 5µs, %v", lat, err, wantErr)
		}
		if lat, err := d.Trim(0, 8); lat != 7*time.Microsecond || err != wantErr || dev.trims != 1 {
			t.Errorf("Trim = %v, %v (device saw %d trims); want 7µs, %v, 1", lat, err, dev.trims, wantErr)
		}
		if tr.calls[spanSSDRead] != 1 || tr.calls[spanSSDWrite] != 1 || tr.calls[spanSSDTrim] != 1 || tr.depth != 0 {
			t.Errorf("span counts read/write/trim = %d/%d/%d, depth %d; want 1/1/1, 0",
				tr.calls[spanSSDRead], tr.calls[spanSSDWrite], tr.calls[spanSSDTrim], tr.depth)
		}
	}
}

// TestTracerSelfTime: a parent's self time excludes its children.
func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{on: true}
	tr.begin(spanSearch)
	tr.begin(spanExecute)
	tr.begin(spanReadList)
	tr.end()
	tr.end()
	tr.end()
	total := tr.totalNS[spanSearch]
	self := tr.selfNS[spanSearch] + tr.selfNS[spanExecute] + tr.selfNS[spanReadList]
	if total <= 0 || self != total {
		t.Errorf("self times sum to %d, root span lasted %d", self, total)
	}
	if tr.layerSelfNS("core") != tr.selfNS[spanReadList] {
		t.Errorf("layerSelfNS(core) = %d, want the read_list span's %d", tr.layerSelfNS("core"), tr.selfNS[spanReadList])
	}
	if len(tr.spans) != 3 || tr.spans[0].parent != tr.spans[1].id || tr.spans[2].parent != 0 {
		t.Errorf("kept spans %+v: want child before parent, root with parent 0", tr.spans)
	}
}

func TestEmitReportsNameMismatches(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	out, problems := emit(defs, map[string]float64{"a": 1, "c": 2})
	if len(out) != 1 || len(problems) != 2 {
		t.Errorf("emit = %v, %v; want one metric and two problems (b not measured, c not declared)", out, problems)
	}
}

// TestBasket runs the basket at 1/10 of its counts: every experiment
// regenerates, the window builds no index, and the shares add up.
func TestBasket(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates 17 experiments")
	}
	w, _ := workloadByName("basket")
	w = w.scaled(10)
	traced := mustRun(t, w, 0xA01, true, testOptions(t, 1))
	sum := 0.0
	for _, id := range basketIDs {
		sum += traced.Metrics[expShareName(id)].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("experiment shares sum to %.12f, want 1", sum)
	}

	// The timed rounds compare each other's output; two quick experiments
	// are enough to exercise that path.
	w.Experiments = []string{"tables23", "table1"}
	w.SetupExperiments = []string{"table1"}
	timed := mustRun(t, w, 0xA01, false, testOptions(t, 2))
	if timed.Metrics["wall_s"].Value <= 0 || timed.Exact["experiments.output_crc32"] == 0 {
		t.Errorf("wall_s = %v, output crc = %v", timed.Metrics["wall_s"].Value, timed.Exact["experiments.output_crc32"])
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := func() report {
		r := report{Workload: "ref_2lc", Seed: 1, Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{}, Exact: map[string]float64{"sim_resp_mean_us": 10, "engine.result_crc32": 7}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{Value: 10, Unit: d.Unit}
		}
		return r
	}
	write := func(name string, recs ...report) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	all := func(r report) []report {
		var recs []report
		for _, w := range workloads {
			r.Workload = w.Name
			recs = append(recs, r)
		}
		return recs
	}
	a := write("a.ndjson", all(base())...)

	slower := base()
	slower.Metrics["host_qps"] = metricValue{Value: 9.5, Unit: "1/s"} // inside the bound
	if code := compareMain(io.Discard, []string{a, write("ok.ndjson", all(slower)...)}); code != 0 {
		t.Errorf("compare of runs inside every bound exited %d, want 0", code)
	}
	slower.Metrics["host_qps"] = metricValue{Value: 5, Unit: "1/s"}
	if code := compareMain(io.Discard, []string{a, write("worse.ndjson", all(slower)...)}); code != 1 {
		t.Errorf("compare with host_qps halved exited %d, want 1", code)
	}
	changed := base()
	changed.Exact["engine.result_crc32"] = 8
	if code := compareMain(io.Discard, []string{a, write("changed.ndjson", all(changed)...)}); code != 1 {
		t.Errorf("compare with a different result CRC exited %d, want 1", code)
	}
	if code := compareMain(io.Discard, []string{a, write("missing.ndjson", base())}); code != 1 {
		t.Errorf("compare against a file missing three workloads exited %d, want 1", code)
	}
}

// TestLintClean keeps bench/ under the repository's contract analyzers: it
// is a module of its own, so the root `hybridlint ./...` does not see it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the module")
	}
	pkgs, err := goloader.Load("hybridstore/bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	for _, d := range analysis.Run(pkgs[0], analysis.All()) {
		t.Errorf("%s", d)
	}
}
