package obs

import (
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
		o.EndQuery(time.Duration(i)*time.Second, time.Millisecond)
	}
	pts := o.Series()
	if len(pts) != 3 {
		t.Fatalf("sampled %d times, want 3", len(pts))
	}
	for i, p := range pts {
		if want := float64(2 * (i + 1)); p.RIC != want || p.AtUS != int64(want)*1_000_000 {
			t.Fatalf("sample %d = %+v, want RIC %v at %vs", i, p, want, want)
		}
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
