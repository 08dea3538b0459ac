//go:build !linux

package main

import (
	"runtime"
	"time"
)

// peakRSSMB falls back to the memory the Go runtime has obtained from
// the OS, an upper bound of its peak heap.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func resetPeakRSS() {}

// cpuTime is not measured off Linux: cpu_ms_per_op reads 0 there.
func cpuTime() time.Duration { return 0 }

func fsType(string) string { return "unknown" }
