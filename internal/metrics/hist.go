// Package metrics provides the histograms and tables used to report every
// experiment in the reproduction.
//
// The types here count simulated quantities (simulated nanoseconds, cache
// probes, device operations); nothing in this package touches wall-clock
// time. All types are safe for concurrent use unless stated otherwise.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// ExpBounds returns n strictly ascending bucket bounds starting at start
// and multiplying by factor, for log-spaced histograms (latencies, sizes).
// It panics on a non-positive start, a factor <= 1 or n < 1.
func ExpBounds(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBounds needs start > 0, factor > 1, n >= 1")
	}
	out := make([]int64, n)
	v := float64(start)
	for i := range out {
		b := int64(math.Round(v))
		if i > 0 && b <= out[i-1] {
			b = out[i-1] + 1
		}
		out[i] = b
		v *= factor
	}
	return out
}

// Histogram buckets integer-valued observations (sizes, counts, ranks) into
// caller-defined boundaries. Bucket i covers values v with
// bounds[i-1] < v <= bounds[i]; an implicit final bucket catches everything
// above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64
	counts []int64
	total  int64
	sum    int64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. It panics if bounds is empty or not strictly ascending.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	cp := make([]int64, len(bounds))
	copy(cp, bounds)
	return &Histogram{bounds: cp, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[idx]++
	h.total++
	h.sum += v
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the arithmetic mean of the observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Sum returns the running sum of all observed values.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the p-th percentile (0 < p <= 100) from the bucket
// counts by linear interpolation inside the bucket holding the rank.
// Returns 0 for an empty histogram. Observations that landed in the
// overflow bucket (above the last bound) are clamped to the last bound —
// the histogram does not retain their exact values.
func (h *Histogram) Quantile(p float64) float64 {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: quantile %v out of (0,100]", p))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(h.bounds) {
			// Overflow bucket: exact values are gone; the last bound is
			// the tightest lower bound the histogram can certify.
			return float64(h.bounds[len(h.bounds)-1])
		}
		lo := int64(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		// Position of the rank inside this bucket, in (0, 1].
		frac := float64(rank-(cum-c)) / float64(c)
		return float64(lo) + frac*float64(hi-lo)
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Buckets returns a copy of (upper bound, count) pairs; the final pair has
// bound -1 meaning "overflow" (values above the last bound).
type Bucket struct {
	UpperBound int64 // -1 for the overflow bucket
	Count      int64
}

// Buckets returns the current bucket contents.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Bucket, 0, len(h.counts))
	for i, c := range h.counts {
		b := int64(-1)
		if i < len(h.bounds) {
			b = h.bounds[i]
		}
		out = append(out, Bucket{UpperBound: b, Count: c})
	}
	return out
}

// String renders the histogram one bucket per line.
func (h *Histogram) String() string {
	var sb strings.Builder
	for _, b := range h.Buckets() {
		if b.UpperBound < 0 {
			fmt.Fprintf(&sb, "  >last: %d\n", b.Count)
		} else {
			fmt.Fprintf(&sb, "  <=%d: %d\n", b.UpperBound, b.Count)
		}
	}
	return sb.String()
}

// Table formats experiment output rows with aligned columns. It is the one
// formatter shared by every benchmark harness so the printed tables look
// identical across experiments.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hkr := range t.header {
		widths[i] = utf8.RuneCountInString(hkr)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				for p := utf8.RuneCountInString(cell); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
