package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestObserverSampleEveryCheckpoints(t *testing.T) {
	o := New(Options{SampleEvery: 2})
	v := 0.0
	o.SetSampler(func() Sample { return Sample{RIC: v} })
	for i := 1; i <= 6; i++ {
		v = float64(i)
		o.BeginQuery(uint64(i), 0)
		o.EndQuery(time.Duration(i)*time.Second, time.Duration(i)*time.Millisecond)
	}
	pts := o.Series()
	if len(pts) != 3 {
		t.Fatalf("sampled %d times, want 3", len(pts))
	}
	for i, p := range pts {
		// Queries 2i+1 and 2i+2 took 2i+1 and 2i+2 ms: their mean is
		// 2i+1.5 ms.
		want := float64(2 * (i + 1))
		if p.RIC != want || p.AtUS != int64(want)*1_000_000 || p.Queries != int64(want) ||
			p.IntervalMeanUS != int64(2*i+1)*1000+500 {
			t.Fatalf("sample %d = %+v, want RIC %v and %v queries at %vs, interval mean %d.5 ms",
				i, p, want, want, want, 2*i+1)
		}
	}
	if o.Latest() != pts[2] {
		t.Fatalf("Latest() = %+v, want the last sample %+v", o.Latest(), pts[2])
	}
	if o.Queries() != 6 {
		t.Fatalf("Queries=%d want 6", o.Queries())
	}
	lat := o.OverallLatency()
	if lat.Count != 6 {
		t.Fatalf("latency count=%d want 6", lat.Count)
	}
}

// TestObserverFork: forks share the tracer (one stream, one completed
// count) but own private series, so two systems with independently
// restarting virtual clocks never interleave their samples.
func TestObserverFork(t *testing.T) {
	parent := New(Options{SampleEvery: 1})
	for run := 0; run < 2; run++ {
		f := parent.Fork()
		if f.Tracer != parent.Tracer {
			t.Fatal("fork does not share the parent tracer")
		}
		f.SetSampler(func() Sample { return Sample{} })
		// Each run's clock restarts near zero.
		for i := 1; i <= 3-run; i++ {
			f.BeginQuery(uint64(i), 0)
			f.EndQuery(time.Duration(i)*time.Second, time.Millisecond)
		}
		if got := len(f.Series()); got != 3-run {
			t.Fatalf("fork %d holds %d samples, want %d", run, got, 3-run)
		}
	}
	if got := len(parent.Series()); got != 0 {
		t.Fatalf("parent series has %d samples, want 0", got)
	}
	if got := parent.Tracer.Completed(); got != 5 {
		t.Fatalf("shared tracer completed %d traces, want 5", got)
	}
}

// TestNewTraceFile: the file holds one NDJSON line per completed query only
// after closeTrace, which then reports the count; an empty path writes
// nothing and reports nothing.
func TestNewTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ndjson")
	o, closeTrace, err := NewTraceFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		o.BeginQuery(uint64(i), 0)
		o.EndQuery(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	var report bytes.Buffer
	if err := closeTrace(&report); err != nil {
		t.Fatal(err)
	}
	if want := "wrote 3 trace records to " + path + "\n"; report.String() != want {
		t.Fatalf("report %q, want %q", report.String(), want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Fatalf("trace file holds %d lines, want 3", n)
	}

	o, closeTrace, err = NewTraceFile("", Options{})
	if err != nil || o == nil {
		t.Fatalf("empty path: observer %v, err %v", o, err)
	}
	report.Reset()
	if err := closeTrace(&report); err != nil || report.Len() != 0 {
		t.Fatalf("empty path: closeTrace wrote %q, err %v", report.String(), err)
	}
}
