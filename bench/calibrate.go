package main

// Host-speed calibration.
//
// The box this benchmark was sized on is a shared VM whose speed changes
// at every timescale: by up to 2× from one half second to the next, and by
// a third over tens of minutes (identical rounds of ref_2lc took between
// 3.0 and 4.4 s within one half hour; a pure CPU loop drifted with them).
// Nothing inside a 20 s run averages that out, and two sets of runs twenty
// minutes apart can differ by more than any sensible bound. So measured
// work is interleaved with chunks of a fixed kernel owned by the benchmark
// (about forty chunks per window, a tenth of its time, excluded from it),
// and host times are reported at reference speed: measured time ×
// (reference kernel time / kernel time measured in between). The kernel
// sees the same fast and slow phases as the work, so their ratio is steady:
// over ten seeds per workload the quartile spread of the stream window fell
// from 12–24 % by the clock to 7–10 % scaled, and the basket's from 24 % to
// 3 %; rounds of one run agree within 2 %. A change to the simulator cannot
// move the kernel, so a real gain or loss shows in full.

const (
	// calibrationRepNS is what one kernel repetition takes on the sizing
	// box (2.1 GHz Xeon VM, go1.24) in a quiet phase, interleaved with
	// ref_2lc (its map is cache-cold at the start of every chunk). It only
	// fixes the scale of the reported host times, so that they read like
	// the clock on a quiet sizing box, and is frozen with the workload
	// counts.
	calibrationRepNS = 1.6e6
	// chunkReps sizes one chunk (≈13 ms); windowChunks is how many chunks
	// are spread over one window or warm-up.
	chunkReps    = 8
	windowChunks = 40
	// basketChunkScale makes the chunks between experiments larger: an
	// experiment cannot be interrupted, so its speed rests on the two
	// chunks around it.
	basketChunkScale = 4
)

// calibrator runs the kernel: hash-map accumulation over pseudo-random
// document IDs, the shape of the engine's score accumulator, with no
// allocation once the map has grown.
type calibrator struct {
	reps   int // repetitions per chunk
	scores map[uint32]float64
	x      uint32
}

func newCalibrator(reps int) *calibrator {
	return &calibrator{reps: reps, scores: make(map[uint32]float64, 1<<16), x: 12345}
}

// chunk runs one chunk and returns the host nanoseconds it took.
func (c *calibrator) chunk() int64 {
	t0 := hostNS()
	for r := 0; r < c.reps; r++ {
		clear(c.scores)
		for i := 0; i < 50000; i++ {
			c.x = c.x*1664525 + 1013904223
			c.scores[(c.x>>8)%600000] += float64(i)
		}
	}
	return hostNS() - t0
}

// speed is the machine's speed relative to the sizing box while chunks
// chunks took ns in total: above 1 is faster.
func (c *calibrator) speed(chunks int, ns int64) float64 {
	if ns <= 0 {
		return 1
	}
	return float64(chunks*c.reps) * calibrationRepNS / float64(ns)
}
