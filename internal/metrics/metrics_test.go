package metrics

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	b := h.Buckets()
	if len(b) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(b))
	}
	wantCounts := []int64{2, 2, 2, 2}
	for i, w := range wantCounts {
		if b[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, b[i].Count, w)
		}
	}
	if b[3].UpperBound != -1 {
		t.Errorf("overflow bucket bound = %d", b[3].UpperBound)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram([]int64{100})
	h.Observe(10)
	h.Observe(20)
	if got := h.Mean(); got != 15 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {10, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram([]int64{1})
	h.Observe(0)
	h.Observe(2)
	s := h.String()
	if !strings.Contains(s, "<=1: 1") || !strings.Contains(s, ">last: 1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1)
	tab.AddRow("b", 2.5)
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatalf("missing separator line:\n%s", out)
	}
}

// TestTableAlignsByRunes: a cell's width is what it occupies on screen, so
// a multi-byte rune (the µ of a time.Duration) must not shift the columns
// after it.
func TestTableAlignsByRunes(t *testing.T) {
	tab := NewTable("t", "x")
	tab.AddRow("5µs", "a")
	tab.AddRow("5ms", "b")
	lines := strings.Split(tab.String(), "\n")
	if strings.IndexRune(lines[2], 'a') != strings.IndexRune(lines[3], 'b')+len("µ")-1 {
		t.Fatalf("columns misaligned:\n%s", tab.String())
	}
}
