package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// mark is the process state at the start of a measured interval.
type mark struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	rt    [3]float64
}

// cost is what the process spent over one measured interval.
type cost struct {
	wall     time.Duration
	cpu      time.Duration
	allocMB  float64
	heapMB   float64 // heap in use after a forced GC (see liveHeapMB)
	gcCPUms  float64
	gcCycles float64
	mallocs  float64
}

// runtime/metrics samples read at both ends of an interval.
var rtNames = [3]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin collects garbage left by earlier work, so every interval starts
// from the same heap state, and marks the start.
func begin() mark {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{cpu: processCPU(), alloc: ms.TotalAlloc, rt: readRuntime()}
	m.wall = time.Now()
	return m
}

// end closes the interval.
func (m mark) end() cost {
	wall := time.Since(m.wall)
	cpu := processCPU() - m.cpu
	rt := readRuntime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(ms.TotalAlloc-m.alloc) / 1e6,
		gcCPUms:  (rt[0] - m.rt[0]) * 1e3,
		gcCycles: rt[1] - m.rt[1],
		mallocs:  rt[2] - m.rt[2],
	}
}

// liveHeapMB forces a GC and returns the heap still in use. Workloads
// call it after the phase's checks, with the checker reset, so the
// figure is the program's heap, not the messages the checks kept.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile is one order statistic of a sample, with the sample size and
// how many samples lie strictly beyond the chosen rank, so a reader can
// tell whether a tail percentile rests on enough data.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank method. xs is not modified. An empty sample gives N=0.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median of xs, the mean of the two middle values for an even count; 0
// for an empty sample. Medians summarise repeated timings of one run.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
