package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/simclock"
)

func TestAttribJSONRoundTrip(t *testing.T) {
	var a Attrib
	a.Add(simclock.CompHDDSeek, 3*time.Millisecond)
	a.Add(simclock.CompCPUIntersect, 5*time.Microsecond)

	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical enum order, zeros omitted.
	if got, want := string(b), `{"hdd_seek":3000000,"cpu_intersect":5000}`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}

	var back Attrib
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("roundtrip: %v != %v", back, a)
	}

	// Unknown component names fold into "other" instead of erroring.
	if err := json.Unmarshal([]byte(`{"hdd_seek":1,"future_component":9}`), &back); err != nil {
		t.Fatal(err)
	}
	if back[simclock.CompOther] != 9 || back[simclock.CompHDDSeek] != 1 {
		t.Fatalf("unknown name handling: %v", back)
	}

	if a.Sum() != 3005000 {
		t.Fatalf("Sum = %d", a.Sum())
	}
}

func TestAttribZeroMarshalsEmpty(t *testing.T) {
	b, err := json.Marshal(Attrib{})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "{}" {
		t.Fatalf("zero Attrib marshals as %s", b)
	}
}

// TestTracerAddTimeTilesSpans: simulated time fed through AddTime lands on
// the next recorded span as start/duration, and the per-query attribution
// equals the total time added.
func TestTracerAddTimeTilesSpans(t *testing.T) {
	tr := NewTracer()
	tr.Begin(7, 0)
	tr.AddTime(simclock.CompCacheBookkeeping, 10*time.Microsecond)
	tr.ResultProbe("miss", 0)
	tr.AddTime(simclock.CompHDDSeek, 8*time.Millisecond)
	tr.AddTime(simclock.CompHDDTransfer, 1*time.Millisecond)
	tr.ListRead(1, "hdd", 4096)
	tr.AddTime(simclock.CompCPUIntersect, 90*time.Microsecond)
	q := tr.End(9100 * time.Microsecond)

	if q.Attrib == nil {
		t.Fatal("trace lacks attribution")
	}
	if got := q.Attrib.Sum(); got != q.ElapsedNS {
		t.Fatalf("attribution sums to %d, elapsed %d", got, q.ElapsedNS)
	}
	if len(q.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(q.Spans))
	}
	if q.Spans[0].StartNS != 0 || q.Spans[0].DurNS != 10_000 {
		t.Fatalf("span0 start=%d dur=%d", q.Spans[0].StartNS, q.Spans[0].DurNS)
	}
	if q.Spans[1].StartNS != 10_000 || q.Spans[1].DurNS != 9_000_000 {
		t.Fatalf("span1 start=%d dur=%d", q.Spans[1].StartNS, q.Spans[1].DurNS)
	}
	// The trailing 90µs of CPU time is attributed but past the last span.
	if q.Attrib[simclock.CompCPUIntersect] != 90_000 {
		t.Fatalf("cpu_intersect = %d", q.Attrib[simclock.CompCPUIntersect])
	}
}

// TestTracerTruncationKeepsTiming: when the span cap truncates the list, a
// synthetic "truncated" span carries the residual time so span durations
// still sum to the elapsed time.
func TestTracerTruncationKeepsTiming(t *testing.T) {
	tr := NewTracer()
	tr.SetSpanLimit(2)
	tr.Begin(1, 0)
	for i := 0; i < 6; i++ {
		tr.AddTime(simclock.CompSSDRead, time.Millisecond)
		tr.ListRead(int64(i), "ssd", 100)
	}
	q := tr.End(6 * time.Millisecond)

	if q.SpansDropped != 4 {
		t.Fatalf("dropped = %d, want 4", q.SpansDropped)
	}
	if len(q.Spans) != 3 {
		t.Fatalf("spans = %d, want 2 recorded + 1 truncated", len(q.Spans))
	}
	last := q.Spans[len(q.Spans)-1]
	if last.Kind != "truncated" {
		t.Fatalf("last span kind = %q", last.Kind)
	}
	if last.StartNS != 2_000_000 || last.DurNS != 4_000_000 {
		t.Fatalf("truncated span start=%d dur=%d", last.StartNS, last.DurNS)
	}
	var spanSum int64
	for _, s := range q.Spans {
		spanSum += s.DurNS
	}
	if spanSum != q.ElapsedNS {
		t.Fatalf("span durations sum to %d, elapsed %d", spanSum, q.ElapsedNS)
	}
	if q.Attrib.Sum() != q.ElapsedNS {
		t.Fatalf("attribution %d != elapsed %d", q.Attrib.Sum(), q.ElapsedNS)
	}
}

// TestTracerSpanCaptureDisabled: a negative span limit keeps attribution
// exact without recording any spans (and without a synthetic one).
func TestTracerSpanCaptureDisabled(t *testing.T) {
	o := New(Options{SpanLimit: -1})
	o.Tracer.Begin(1, 0)
	o.Tracer.AddTime(simclock.CompHDDSeek, 5*time.Millisecond)
	o.Tracer.ListRead(1, "hdd", 10)
	q := o.Tracer.End(5 * time.Millisecond)

	if len(q.Spans) != 0 {
		t.Fatalf("spans captured despite negative limit: %d", len(q.Spans))
	}
	if q.Attrib == nil || q.Attrib.Sum() != q.ElapsedNS {
		t.Fatalf("attribution broken with span capture off: %+v", q.Attrib)
	}
}

func TestObserverFoldsProfile(t *testing.T) {
	o := New(Options{})
	for i := 0; i < 3; i++ {
		o.BeginQuery(uint64(i), 0)
		o.Tracer.AddTime(simclock.CompSSDRead, 2*time.Millisecond)
		o.Tracer.SetSituation("S2(R:ssd)")
		o.EndQuery(0, 2*time.Millisecond)
	}
	// A query without attribution must not land in the profile.
	o.BeginQuery(9, 0)
	o.EndQuery(0, time.Millisecond)

	rows := o.Profile().Rows()
	if len(rows) != 1 {
		t.Fatalf("profile rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Situation != "S2(R:ssd)" || r.Queries != 3 || r.ElapsedNS != 6_000_000 {
		t.Fatalf("row = %+v", r)
	}
	if r.Attrib[simclock.CompSSDRead] != 6_000_000 {
		t.Fatalf("attrib = %v", r.Attrib)
	}
}

func TestProgressString(t *testing.T) {
	p := Progress{
		Queries:          1234,
		IntervalMeanTime: 1500 * time.Microsecond,
		P50:              time.Millisecond,
		P95:              10 * time.Millisecond,
		P99:              20 * time.Millisecond,
		RC:               0.25, IC: 0.5, RIC: 0.625,
		SSDErases: 42, SSDWriteAmp: 1.125,
	}
	got := p.String()
	want := "q=1234 mean=1.5ms p50=1ms p95=10ms p99=20ms RC=0.250 IC=0.500 RIC=0.625 erases=42 WA=1.125"
	if got != want {
		t.Fatalf("Progress.String()\n got %q\nwant %q", got, want)
	}
	var zero Progress
	if s := zero.String(); !strings.Contains(s, "q=0") || !strings.Contains(s, "RC=0.000") {
		t.Fatalf("zero Progress renders oddly: %q", s)
	}
}
