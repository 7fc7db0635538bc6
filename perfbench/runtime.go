package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
)

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rtSnap is a snapshot of the Go runtime's counters.
type rtSnap struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	gcPauseNs    uint64
	sched        *metrics.Float64Histogram
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

// readRuntime snapshots the runtime counters, with the exact
// stop-the-world pause total, which itself stops the world; it is taken
// only at phase edges.
func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	snap := rtSnap{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		sched:        s[3].Value.Float64Histogram(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.gcPauseNs = ms.PauseTotalNs
	return snap
}

// schedP99Us is the 99th-percentile goroutine scheduling latency, in
// microseconds, over the interval between two snapshots: the upper edge
// of the runtime histogram bucket holding the nearest-rank sample. 0
// when no goroutine became runnable in between.
func schedP99Us(before, after rtSnap) float64 {
	a, b := after.sched, before.sched
	var total uint64
	delta := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		delta[i] = a.Counts[i] - b.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(p99, int(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			edge := a.Buckets[i+1]
			if math.IsInf(edge, 1) { // the last bucket is open-ended
				edge = a.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
