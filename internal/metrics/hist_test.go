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

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, p := range []float64{50, 95, 99, 100} {
		if got := h.Quantile(p); got != 0 {
			t.Fatalf("Quantile(%v) on empty histogram = %v, want 0", p, got)
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
	for _, p := range []float64{1, 50, 99, 100} {
		q := h.Quantile(p)
		if q <= 10 || q > 100 {
			t.Fatalf("Quantile(%v)=%v escaped the (10,100] bucket", p, q)
		}
	}
	if got := h.Quantile(100); got != 100 {
		t.Fatalf("Quantile(100)=%v, want upper bound 100", got)
	}
}

func TestQuantileOverflowClampsToLastBound(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5000) // above the last bound
	h.Observe(7000)
	for _, p := range []float64{50, 99} {
		if got := h.Quantile(p); got != 100 {
			t.Fatalf("Quantile(%v)=%v, want clamp to last bound 100", p, got)
		}
	}
	// Mean still sees the exact values.
	if h.Mean() != 6000 {
		t.Fatalf("Mean=%v want 6000", h.Mean())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// 100 observations uniform over four buckets: p50 must land at the
	// upper edge of the second bucket, p25 at the first.
	h := NewHistogram([]int64{25, 50, 75, 100})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(50); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Quantile(50)=%v want 50", got)
	}
	if got := h.Quantile(25); math.Abs(got-25) > 1e-9 {
		t.Fatalf("Quantile(25)=%v want 25", got)
	}
	if got := h.Quantile(100); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Quantile(100)=%v want 100", got)
	}
	// Monotone in p.
	prev := 0.0
	for p := 1.0; p <= 100; p++ {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: p=%v q=%v prev=%v", p, q, prev)
		}
		prev = q
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	h := NewHistogram([]int64{10})
	for _, p := range []float64{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(%v) should panic", p)
				}
			}()
			h.Quantile(p)
		}()
	}
}

// TestSummaryMatchesReaders: Summary holds exactly what Total, Mean and
// Quantile(50/95/99/99.9) read, on the distributions the tests above use,
// and USDuration rounds its fields to the microsecond.
func TestSummaryMatchesReaders(t *testing.T) {
	observe := func(bounds []int64, vs ...int64) *Histogram {
		h := NewHistogram(bounds)
		for _, v := range vs {
			h.Observe(v)
		}
		return h
	}
	uniform := observe([]int64{25, 50, 75, 100})
	for v := int64(1); v <= 100; v++ {
		uniform.Observe(v)
	}
	for name, h := range map[string]*Histogram{
		"empty":         observe([]int64{10, 100}),
		"single bucket": observe([]int64{10, 100, 1000}, 50, 50, 50, 50, 50, 50, 50, 50),
		"overflow":      observe([]int64{10, 100}, 5000, 7000),
		"uniform":       uniform,
		"all buckets":   observe([]int64{10, 100, 1000}, 1, 10, 11, 100, 101, 1000, 1001, 5000),
	} {
		want := Summary{
			Count: h.Total(), Mean: h.Mean(),
			P50: h.Quantile(50), P95: h.Quantile(95), P99: h.Quantile(99), P999: h.Quantile(99.9),
		}
		if got := h.Summary(); got != want {
			t.Errorf("%s: Summary() = %+v, readers say %+v", name, got, want)
		}
	}
	for us, want := range map[float64]time.Duration{
		93.4: 93 * time.Microsecond, 93.5: 94 * time.Microsecond, 93.99: 94 * time.Microsecond,
		10502.6: 10503 * time.Microsecond, 0: 0,
	} {
		if got := USDuration(us); got != want {
			t.Errorf("USDuration(%v) = %v, want %v", us, got, want)
		}
	}
}
