package workload

import (
	"fmt"
	"math"
	"time"

	"hybridstore/internal/simclock"
)

// The diurnal curve every arrival stream follows: the rate swings
// sinusoidally between λ(1−A) and λ(1+A) over diurnalPeriod, the
// scaled-down analogue of a search engine's day/night traffic. The Poisson
// draws come from one fixed seed, so a rate fixes every arrival instant.
const (
	diurnalAmplitude = 0.25
	diurnalPeriod    = 10 * time.Second
	arrivalSeed      = 0xA4471
)

// ValidateRate reports whether ratePerSec is usable as an arrival rate: it
// must be positive and finite.
func ValidateRate(ratePerSec float64) error {
	if ratePerSec <= 0 || math.IsNaN(ratePerSec) || math.IsInf(ratePerSec, 0) {
		return fmt.Errorf("workload: arrival rate = %v", ratePerSec)
	}
	return nil
}

// Arrivals generates the instants of an open-loop query-arrival process on
// the simulated timeline, in order: a Poisson stream at a mean rate λ
// modulated by the diurnal curve. Open-loop means arrivals do not wait for
// the system — offered load keeps coming at the specified rate whether or
// not the serving tier keeps up, which is what makes queueing (and tail
// latency under saturation) visible.
//
// The non-homogeneous Poisson process is sampled by thinning (Lewis &
// Shedler): candidate gaps are exponential at the majorizing rate and each
// candidate survives with probability rate(t)/maxRate. Both draws come from
// the generator's own RNG stream, so the process is deterministic.
type Arrivals struct {
	ratePerSec float64
	rng        *simclock.RNG
	t          time.Duration
}

// NewArrivals builds a generator at a mean rate of ratePerSec queries per
// simulated second. It panics on a rate ValidateRate refuses; call
// ValidateRate first when the rate comes from user input.
func NewArrivals(ratePerSec float64) *Arrivals {
	if err := ValidateRate(ratePerSec); err != nil {
		panic(err)
	}
	return &Arrivals{ratePerSec: ratePerSec, rng: simclock.NewRNG(arrivalSeed).Split(7)}
}

// rate returns the instantaneous arrival rate at simulated time t, in
// queries per simulated second.
func (a *Arrivals) rate(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(diurnalPeriod)
	return a.ratePerSec * (1 + diurnalAmplitude*math.Sin(phase))
}

// maxRate bounds rate over all t, the majorizing rate for thinning.
func (a *Arrivals) maxRate() float64 { return a.ratePerSec * (1 + diurnalAmplitude) }

// Next returns the next absolute arrival time. Arrival times are strictly
// increasing.
func (a *Arrivals) Next() time.Duration {
	lambdaMax := a.maxRate()
	for {
		// Exponential gap at the majorizing rate. 1−U avoids log(0);
		// the max(1ns) keeps arrivals strictly increasing even when the
		// gap rounds to zero nanoseconds at extreme rates.
		u := a.rng.Float64()
		gap := time.Duration(-math.Log(1-u) / lambdaMax * float64(time.Second))
		if gap < 1 {
			gap = 1
		}
		a.t += gap
		if a.rng.Float64()*lambdaMax <= a.rate(a.t) {
			return a.t
		}
	}
}
