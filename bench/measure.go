package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the num/den quantile of sorted by the nearest-rank
// rule: the smallest value with at least that share of the sample at or
// below it (integer arithmetic, so p99 of 100 values is the 99th, not the
// 100th by a rounding error). sorted must be ascending and non-empty.
func percentile[T int64 | float64](sorted []T, num, den int) T {
	n := len(sorted)
	i := (n*num+den-1)/den - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle of vs (mean of the two middles for an even
// count). It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far. On the real
// path it is the energy proxy: the whole cluster runs in this process, so
// one RUSAGE_SELF delta over the window covers every server and client.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tick is one 10 Hz sample of an open window: when, and the process CPU
// time so far. Consecutive ticks bound the slices of sliceStats.
type tick struct {
	at  time.Time
	cpu time.Duration
}

// window is one measured interval's process-level accounting: wall and
// CPU time, allocation and GC deltas, and the peak heap in use sampled at
// 10 Hz while it was open.
type window struct {
	wall        time.Duration
	cpu         time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	heapPeakMiB float64
	ticks       []tick // the window's start, every sample, and its end

	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	stop    chan struct{}
	sampled sync.WaitGroup
	peak    uint64
}

// heapInUse reads the bytes in in-use heap spans (MemStats.HeapInuse)
// through runtime/metrics, which unlike ReadMemStats does not stop the
// world — the sampler runs inside the measured window.
func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

// openWindow starts a measured interval. Callers do their timed work and
// then call close exactly once.
func openWindow() *window {
	w := &window{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.ms0)
	w.peak = heapInUse(heapSamples())
	w.cpu0 = cpuTime()
	w.t0 = time.Now()
	w.ticks = append(w.ticks, tick{w.t0, w.cpu0})
	w.sampled.Add(1)
	go func() {
		defer w.sampled.Done()
		s := heapSamples()
		ticker := time.NewTicker(sliceLen)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if h := heapInUse(s); h > w.peak {
					w.peak = h
				}
				w.ticks = append(w.ticks, tick{time.Now(), cpuTime()})
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func (w *window) close() {
	end, cpu := time.Now(), cpuTime()
	w.wall = end.Sub(w.t0)
	w.cpu = cpu - w.cpu0
	close(w.stop)
	w.sampled.Wait()
	w.ticks = append(w.ticks, tick{end, cpu})
	if h := heapInUse(heapSamples()); h > w.peak {
		w.peak = h
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - w.ms0.Mallocs
	w.allocBytes = ms.TotalAlloc - w.ms0.TotalAlloc
	w.gcCycles = ms.NumGC - w.ms0.NumGC
	w.gcPause = time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs)
	w.heapPeakMiB = float64(w.peak) / (1 << 20)
}

// settleHeap returns the heap to a comparable state between repetitions:
// the previous repetition's cluster (its log alone is ~170 MB on the
// update workload) must not be charged to the next one's peak.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// timeNs runs fn over n items rounds times and returns the median
// per-item nanoseconds — the isolated ladder rungs' estimator.
func timeNs(rounds, n int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		fn()
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// mallocsDuring returns the heap allocations fn performs.
func mallocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
