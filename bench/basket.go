package main

import (
	"fmt"
	"hash/crc32"
	"io"

	"hybridstore/internal/experiments"
)

// basketPass is one round of the basket: set-up builds every index image,
// the window regenerates each experiment. Times are host nanoseconds at
// reference speed: a calibration chunk runs between experiments, and each
// stretch is scaled by the chunks on either side of it.
type basketPass struct {
	setupNS        float64
	wallNS         float64
	rawWallNS      int64
	expNS          []float64 // per experiment, in workloadSpec.Experiments order
	outputCRC      uint32    // every byte the experiments wrote
	buildsInWindow int64     // must be 0: lazy image builds belong to set-up
	errors         int
	liveMB         float64
}

// runBasket regenerates the workload's experiments once. Layers cannot be
// decorated inside Experiment.Run, so the basket's own layer numbers are
// the calls into Run timed from outside.
func runBasket(w workloadSpec, cal *calibrator) (basketPass, error) {
	p := basketPass{expNS: make([]float64, len(w.Experiments))}
	sc := w.basketScale()
	// atRefSpeed scales a stretch that began after the previous chunk:
	// it runs the next chunk and uses the mean of the two.
	before := cal.chunk()
	atRefSpeed := func(ns int64) float64 {
		after := cal.chunk()
		speed := cal.speed(2, before+after)
		before = after
		return float64(ns) * speed
	}

	t0 := hostNS()
	experiments.ResetArtifacts()
	for _, id := range w.SetupExperiments {
		exp, ok := experiments.ByID(id)
		if !ok {
			return p, fmt.Errorf("workload %s: unknown set-up experiment %q", w.Name, id)
		}
		if err := exp.Run(io.Discard, sc); err != nil {
			return p, fmt.Errorf("workload %s: set-up experiment %s: %w", w.Name, id, err)
		}
	}
	_, buildsBefore, _ := experiments.ArtifactStats()
	p.setupNS = atRefSpeed(hostNS() - t0)

	out := crc32.NewIEEE()
	for i, id := range w.Experiments {
		exp, ok := experiments.ByID(id)
		if !ok {
			return p, fmt.Errorf("workload %s: unknown experiment %q", w.Name, id)
		}
		e0 := hostNS()
		if err := exp.Run(out, sc); err != nil {
			p.errors++
		}
		ns := hostNS() - e0
		p.rawWallNS += ns
		p.expNS[i] = atRefSpeed(ns)
		p.wallNS += p.expNS[i]
	}

	_, buildsAfter, _ := experiments.ArtifactStats()
	p.buildsInWindow = buildsAfter - buildsBefore
	p.outputCRC = out.Sum32()
	p.liveMB = liveHeapMB() // the artifact cache is what stays reachable
	return p, nil
}
