package metrics

import (
	"math"
	"testing"
	"time"
)

func TestExpBounds(t *testing.T) {
	b := ExpBounds(16, 2, 5)
	want := []int64{16, 32, 64, 128, 256}
	if len(b) != len(want) {
		t.Fatalf("len=%d want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bound[%d]=%d want %d", i, b[i], want[i])
		}
	}
	// A small factor must still produce strictly ascending bounds.
	b = ExpBounds(1, 1.01, 10)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %v", i, b)
		}
	}
}

func TestExpBoundsPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		start  int64
		factor float64
		n      int
	}{
		{"zero start", 0, 2, 3},
		{"factor one", 10, 1, 3},
		{"zero n", 10, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			ExpBounds(c.start, c.factor, c.n)
		})
	}
}

// quantileAt reads the p-th percentile the way Summary reads its four, for
// the percentiles a Summary does not carry.
func quantileAt(h *Histogram, p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(p)
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	s := h.Summary()
	for name, got := range map[string]float64{"p50": s.P50, "p95": s.P95, "p99": s.P99, "p100": quantileAt(h, 100)} {
		if got != 0 {
			t.Fatalf("%s on empty histogram = %v, want 0", name, got)
		}
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All mass in one bucket: quantiles interpolate across that bucket's
	// range and never escape it.
	h := NewHistogram([]int64{10, 100, 1000})
	for i := 0; i < 8; i++ {
		h.Observe(50) // bucket (10, 100]
	}
	s := h.Summary()
	for name, q := range map[string]float64{"p1": quantileAt(h, 1), "p50": s.P50, "p99": s.P99, "p100": quantileAt(h, 100)} {
		if q <= 10 || q > 100 {
			t.Fatalf("%s=%v escaped the (10,100] bucket", name, q)
		}
	}
	if got := quantileAt(h, 100); got != 100 {
		t.Fatalf("p100=%v, want upper bound 100", got)
	}
}

func TestQuantileOverflowClampsToLastBound(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5000) // above the last bound
	h.Observe(7000)
	s := h.Summary()
	for name, got := range map[string]float64{"p50": s.P50, "p99": s.P99} {
		if got != 100 {
			t.Fatalf("%s=%v, want clamp to last bound 100", name, got)
		}
	}
	// Mean still sees the exact values.
	if s.Mean != 6000 {
		t.Fatalf("Mean=%v want 6000", s.Mean)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// 100 observations uniform over four buckets: p50 must land at the
	// upper edge of the second bucket, p25 at the first.
	h := NewHistogram([]int64{25, 50, 75, 100})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Summary().P50; math.Abs(got-50) > 1e-9 {
		t.Fatalf("p50=%v want 50", got)
	}
	if got := quantileAt(h, 25); math.Abs(got-25) > 1e-9 {
		t.Fatalf("p25=%v want 25", got)
	}
	if got := quantileAt(h, 100); math.Abs(got-100) > 1e-9 {
		t.Fatalf("p100=%v want 100", got)
	}
	// Monotone in p.
	prev := 0.0
	for p := 1.0; p <= 100; p++ {
		q := quantileAt(h, p)
		if q < prev {
			t.Fatalf("quantile not monotone: p=%v q=%v prev=%v", p, q, prev)
		}
		prev = q
	}
}

// TestSummaryMatchesReaders: Summary holds the observation count, their exact
// mean and the bucket quantiles at 50/95/99/99.9, on the distributions the
// tests above use, and USDuration, RoundUS and FormatMS round to the
// microsecond.
func TestSummaryMatchesReaders(t *testing.T) {
	type dist struct {
		bounds []int64
		vs     []int64
	}
	var uniform []int64
	for v := int64(1); v <= 100; v++ {
		uniform = append(uniform, v)
	}
	for name, d := range map[string]dist{
		"empty":         {[]int64{10, 100}, nil},
		"single bucket": {[]int64{10, 100, 1000}, []int64{50, 50, 50, 50, 50, 50, 50, 50}},
		"overflow":      {[]int64{10, 100}, []int64{5000, 7000}},
		"uniform":       {[]int64{25, 50, 75, 100}, uniform},
		"all buckets":   {[]int64{10, 100, 1000}, []int64{1, 10, 11, 100, 101, 1000, 1001, 5000}},
	} {
		h := NewHistogram(d.bounds)
		var sum int64
		for _, v := range d.vs {
			h.Observe(v)
			sum += v
		}
		want := Summary{
			Count: int64(len(d.vs)),
			P50:   quantileAt(h, 50), P95: quantileAt(h, 95), P99: quantileAt(h, 99), P999: quantileAt(h, 99.9),
		}
		if len(d.vs) > 0 {
			want.Mean = float64(sum) / float64(len(d.vs))
		}
		if got := h.Summary(); got != want {
			t.Errorf("%s: Summary() = %+v, want %+v", name, got, want)
		}
	}
	for us, c := range map[float64]struct {
		want time.Duration
		ms   string
	}{
		93.4: {93 * time.Microsecond, "0.093ms"}, 93.5: {94 * time.Microsecond, "0.094ms"},
		93.99: {94 * time.Microsecond, "0.094ms"}, 10502.6: {10503 * time.Microsecond, "10.503ms"},
		9040: {9040 * time.Microsecond, "9.040ms"}, 0: {0, "0.000ms"},
	} {
		want := c.want
		if got := FormatMS(us); got != c.ms {
			t.Errorf("FormatMS(%v) = %q, want %q", us, got, c.ms)
		}
		if got := USDuration(us); got != want {
			t.Errorf("USDuration(%v) = %v, want %v", us, got, want)
		}
		// A Duration of us microseconds rounds to the same whole µs.
		if got := RoundUS(time.Duration(us * float64(time.Microsecond))); got != want.Microseconds() {
			t.Errorf("RoundUS(%vµs) = %d, want %d", us, got, want.Microseconds())
		}
	}
}

// TestRoundUS: a sub-µs part of 500 ns or more rounds up, less rounds down,
// where Duration.Microseconds would truncate both (searchsim's S8 mean of
// 9.039734 ms reads 9 040 µs).
func TestRoundUS(t *testing.T) {
	for d, want := range map[time.Duration]int64{
		9039734 * time.Nanosecond: 9040,
		9039499 * time.Nanosecond: 9039,
		9039500 * time.Nanosecond: 9040,
		499 * time.Nanosecond:     0,
		500 * time.Nanosecond:     1,
		0:                         0,
	} {
		if got := RoundUS(d); got != want {
			t.Errorf("RoundUS(%v) = %d, want %d (Microseconds() says %d)", d, got, want, d.Microseconds())
		}
	}
}
