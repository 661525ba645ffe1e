//go:build !(linux || darwin)

package simclock

import "time"

// processCPU is not measured here; BenchmarkSleep then omits cpu-ns/sleep.
func processCPU() time.Duration { return 0 }
