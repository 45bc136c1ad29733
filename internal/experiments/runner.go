package experiments

// The parallel point runner.
//
// Every sweep experiment decomposes into independent points: one
// (collection, cache config, policy) combination measured on its own
// hybrid.System over its own deterministic virtual clock. Points share
// nothing mutable — each builds a private system, so running them
// concurrently cannot change what any one of them measures. Experiments
// therefore enumerate their points up front, execute them on a bounded
// worker pool via forPoints, and render rows from the collected results in
// point order; `-jobs 1` and `-jobs N` produce byte-identical output. A
// sweep that only measures each configuration hands its list to measure.

import (
	"fmt"
	"sync"

	hybrid "hybridstore"
	"hybridstore/internal/core"
	"hybridstore/internal/flashsim"
)

// point is what one measured configuration leaves behind: the run and
// cache statistics of the measured window and the cache SSD's wear. It
// holds no system, so no device outlives its point.
type point struct {
	run  hybrid.RunStats
	st   core.Stats
	wear flashsim.WearStats
}

// respMS is the measured mean response time in milliseconds.
func (p point) respMS() float64 { return float64(p.run.MeanResponseTime().Microseconds()) / 1000 }

// measure builds and runs each config of cfgs through runMeasured on the
// worker pool and returns the points in configuration order.
func (sc Scale) measure(cfgs []hybrid.Config) ([]point, error) {
	pts := make([]point, len(cfgs))
	err := sc.forPoints(len(cfgs), func(i int) error {
		sys, err := build(cfgs[i])
		if err != nil {
			return err
		}
		p := &pts[i]
		if p.run, p.st, err = runMeasured(sys, sc); err != nil {
			return fmt.Errorf("experiments: point %+v: %w", cfgs[i], err)
		}
		if sys.CacheSSD != nil {
			p.wear = sys.CacheSSD.Wear()
		}
		return nil
	})
	return pts, err
}

// jobs returns the effective worker count: at least 1, and forced to 1
// when a shared Observer is attached (the tracer's per-query spans assume
// one query in flight at a time, so tracing serializes execution).
func (sc Scale) jobs() int {
	if sc.Obs != nil || sc.Jobs < 1 {
		return 1
	}
	return sc.Jobs
}

// forPoints runs fn(0), ..., fn(n-1) on up to sc.jobs() workers and blocks
// until all have finished. Each point must confine its writes to its own
// result slot. All points run even if one fails; the error returned is the
// one from the lowest-numbered failing point, so error reporting does not
// depend on scheduling either.
func (sc Scale) forPoints(n int, fn func(i int) error) error {
	workers := sc.jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
