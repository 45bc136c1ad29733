// Package trace captures and characterizes I/O traces, playing the role
// DiskMon and the UMass trace repository play in the paper (§III, Fig 1).
//
// A Recorder subscribes to device operation hooks and stores the op stream;
// the analyzers then quantify the four access-pattern characteristics the
// paper identifies for search engines: read dominance, locality, random
// reads and skipped reads.
package trace

import (
	"sort"
	"sync"

	"hybridstore/internal/storage"
)

// SectorSize converts byte offsets to the logical sector numbers plotted on
// Fig 1's y-axis.
const SectorSize = 512

// Recorder accumulates device operations. The zero value is an empty
// recorder; it is safe for concurrent use.
type Recorder struct {
	mu  sync.Mutex
	ops []storage.Op
}

// Record appends one op; this is the function to install as a device hook.
func (r *Recorder) Record(op storage.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

// Ops returns a copy of the recorded operations in arrival order.
func (r *Recorder) Ops() []storage.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make([]storage.Op, len(r.ops))
	copy(cp, r.ops)
	return cp
}

// Point is one sample of Fig 1: the i-th read in the trace touched logical
// sector LSN.
type Point struct {
	Seq int64
	LSN int64
}

// ReadSequence extracts the Fig 1 scatter series: logical sector number per
// read, in read order. Non-read operations are skipped.
func ReadSequence(ops []storage.Op) []Point {
	pts := make([]Point, 0, len(ops))
	var seq int64
	for _, op := range ops {
		if op.Kind != storage.OpRead {
			continue
		}
		pts = append(pts, Point{Seq: seq, LSN: op.Offset / SectorSize})
		seq++
	}
	return pts
}

// Characteristics summarizes a trace along the four dimensions of §III.
type Characteristics struct {
	// Ops is the total operation count, Reads the read count.
	Ops   int64
	Reads int64
	// ReadFraction is Reads/Ops (paper: >99% for web search).
	ReadFraction float64
	// UniqueSectors is the footprint: distinct 512 B sectors touched.
	UniqueSectors int64
	// Top10PctShare is the fraction of accesses landing on the hottest 10%
	// of touched sectors (locality; 0.1 means uniform, →1 means skewed).
	Top10PctShare float64
	// SequentialFraction is the share of ops whose offset continues the
	// previous op's end (random reads = 1 − this, roughly).
	SequentialFraction float64
	// ForwardSkipFraction is the share of reads that jump forward past the
	// previous read's end by at most SkipWindow bytes — the "skipped read"
	// pattern of skip-list index traversal.
	ForwardSkipFraction float64
	// BackwardFraction is the share of ops seeking to a lower offset.
	BackwardFraction float64
}

// SkipWindow bounds how far a forward jump may reach and still count as a
// "skipped read" rather than a random read (1 MiB ≈ one inverted list).
const SkipWindow = 1 << 20

// Analyze computes trace characteristics over ops.
func Analyze(ops []storage.Op) Characteristics {
	var c Characteristics
	sectorHits := make(map[int64]int64)
	var prevEnd int64 = -1
	for _, op := range ops {
		c.Ops++
		if op.Kind == storage.OpRead {
			c.Reads++
		}
		first := op.Offset / SectorSize
		last := (op.Offset + int64(op.Len) - 1) / SectorSize
		if op.Len == 0 {
			last = first
		}
		for s := first; s <= last; s++ {
			sectorHits[s]++
		}
		if prevEnd >= 0 {
			switch {
			case op.Offset == prevEnd:
				c.SequentialFraction++
			case op.Offset < prevEnd:
				c.BackwardFraction++
			case op.Offset > prevEnd && op.Offset-prevEnd <= SkipWindow:
				if op.Kind == storage.OpRead {
					c.ForwardSkipFraction++
				}
			}
		}
		prevEnd = op.Offset + int64(op.Len)
	}
	if c.Ops > 0 {
		c.ReadFraction = float64(c.Reads) / float64(c.Ops)
		denom := float64(c.Ops - 1)
		if denom > 0 {
			c.SequentialFraction /= denom
			c.BackwardFraction /= denom
			c.ForwardSkipFraction /= denom
		}
	}
	c.UniqueSectors = int64(len(sectorHits))
	c.Top10PctShare = topShare(sectorHits, 0.10)
	return c
}

// topShare returns the fraction of total hits captured by the hottest
// `frac` of keys.
func topShare(hits map[int64]int64, frac float64) float64 {
	if len(hits) == 0 {
		return 0
	}
	counts := make([]int64, 0, len(hits))
	var total int64
	for _, n := range hits {
		counts = append(counts, n)
		total += n
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	k := int(float64(len(counts)) * frac)
	if k < 1 {
		k = 1
	}
	var top int64
	for _, n := range counts[:k] {
		top += n
	}
	return float64(top) / float64(total)
}
