package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// tailMin is how many samples must lie beyond a reported percentile. A
// percentile the sample cannot support is lowered to the highest one that
// it can, and the quantile actually used is reported beside the value.
const tailMin = 10

var inf = math.Inf(1)

// percentile returns the nearest-rank q-quantile of xs, lowered until at
// least tailMin samples lie beyond it, and the quantile it used. ok is
// false when fewer than tailMin+1 samples exist. Failed operations enter
// xs as +Inf, so they count as missing any latency limit.
func percentile(xs []float64, q float64) (v, used float64, ok bool) {
	n := len(xs)
	if n <= tailMin {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if limit := n - 1 - tailMin; k > limit {
		k = limit
	}
	return s[k], float64(k+1) / float64(n), true
}

// median is the middle value of a few whole-run measurements (the mean of
// the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the allocation and CPU counters the runtime keeps,
// so a phase's allocation volume and GC CPU share are two samples apart.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// allocMiBPer is the heap allocated between a and b per operation.
func allocMiBPer(a, b runtimeSample, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return (b.allocBytes - a.allocBytes) / (1 << 20) / float64(ops)
}

// gcCPUFrac is the share of CPU time the garbage collector used between
// a and b.
func gcCPUFrac(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}
