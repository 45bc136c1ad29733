package main

import "time"

// hostNow is the benchmark's only read of the host clock. Every host-clock
// metric and every span boundary goes through it, so the detclock
// exemption lives in one place.
func hostNow() time.Time {
	//hybridlint:allow detclock the benchmark measures what the simulator costs the host; host time never feeds simulated state
	return time.Now()
}

var hostEpoch = hostNow()

// hostNS returns monotonic host nanoseconds since process start.
func hostNS() int64 { return int64(hostNow().Sub(hostEpoch)) }

// secs converts a host-nanosecond interval to seconds.
func secs(ns int64) float64 { return float64(ns) / 1e9 }
