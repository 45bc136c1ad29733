package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// memSnapshot is the Go runtime's cumulative allocation and CPU accounting
// at one instant.
type memSnapshot struct {
	allocBytes uint64
	mallocs    uint64
	gcCPU      float64 // seconds in the collector
	busyCPU    float64 // seconds not idle
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	var cpu [3]float64
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindFloat64 {
			cpu[i] = s.Value.Float64()
		}
	}
	return memSnapshot{
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCPU:      cpu[0],
		busyCPU:    cpu[1] - cpu[2],
	}
}

// memDelta is what a window allocated and how much of its CPU time the
// collector took.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcCPUShare float64
}

func (m memSnapshot) since(start memSnapshot) memDelta {
	d := memDelta{allocBytes: m.allocBytes - start.allocBytes, mallocs: m.mallocs - start.mallocs}
	if busy := m.busyCPU - start.busyCPU; busy > 0 {
		d.gcCPUShare = (m.gcCPU - start.gcCPU) / busy
	}
	return d
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MiB, or
// 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
