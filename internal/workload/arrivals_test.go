package workload

import (
	"math"
	"testing"
	"time"
)

// TestArrivalsDeterministic: the same rate always yields the same arrival
// instants — the open-loop stream is a pure function of its rate.
func TestArrivalsDeterministic(t *testing.T) {
	a, b := NewArrivals(500), NewArrivals(500)
	for i := 0; i < 2000; i++ {
		ta, tb := a.Next(), b.Next()
		if ta != tb {
			t.Fatalf("arrival %d differs: %v vs %v", i, ta, tb)
		}
	}
}

// TestArrivalsStrictlyIncreasing: arrival times never repeat or go
// backwards, even at rates extreme enough that exponential gaps round to
// zero nanoseconds.
func TestArrivalsStrictlyIncreasing(t *testing.T) {
	for _, rate := range []float64{50, 1e6, 5e9} {
		a := NewArrivals(rate)
		prev := time.Duration(-1)
		for i := 0; i < 5000; i++ {
			at := a.Next()
			if at <= prev {
				t.Fatalf("rate %g: arrival %d at %v not after %v", rate, i, at, prev)
			}
			prev = at
		}
	}
}

// TestArrivalsMeanRate: over whole diurnal periods the empirical rate
// tracks λ within a few percent.
func TestArrivalsMeanRate(t *testing.T) {
	const lambda = 1000.0
	a := NewArrivals(lambda)
	const n = 20000 // two diurnal periods at λ
	var last time.Duration
	for i := 0; i < n; i++ {
		last = a.Next()
	}
	got := float64(n) / last.Seconds()
	if got < 0.95*lambda || got > 1.05*lambda {
		t.Fatalf("empirical rate %.1f/s, want within 5%% of %g", got, lambda)
	}
}

// TestArrivalsDiurnal: the rate follows the sinusoid's peak and trough,
// and the majorizing rate is its peak.
func TestArrivalsDiurnal(t *testing.T) {
	a := NewArrivals(100)
	peak := a.rate(diurnalPeriod / 4)       // sin peak: λ(1+A)
	trough := a.rate(3 * diurnalPeriod / 4) // sin trough: λ(1−A)
	if math.Abs(peak-125) > 1e-9 {
		t.Fatalf("peak rate %v, want 125", peak)
	}
	if math.Abs(trough-75) > 1e-9 {
		t.Fatalf("trough rate %v, want 75", trough)
	}
	if mr := a.maxRate(); mr != 125 {
		t.Fatalf("maxRate = %v, want 125", mr)
	}
}

// TestArrivalRateValidate refuses rates no Poisson stream can have.
func TestArrivalRateValidate(t *testing.T) {
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := ValidateRate(r); err == nil {
			t.Errorf("rate %v passed ValidateRate", r)
		}
	}
	if err := ValidateRate(100); err != nil {
		t.Errorf("rate 100 failed ValidateRate: %v", err)
	}
}
