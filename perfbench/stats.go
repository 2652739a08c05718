package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples, sorting them in place.
func percentile[T int64 | uint32](samples []T, p float64) T {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(p/100*float64(len(samples))+0.999999999) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// median of float64 values (average of the middle pair for even counts),
// leaving the input unsorted.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// trimmedMean is the mean of v without its lowest and highest tenth.
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// medianDuration is median over durations, in seconds.
func medianDuration(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = x.Seconds()
	}
	return median(v)
}

// usOf converts nanoseconds to microseconds.
func usOf[T int64 | uint32](ns T) float64 { return float64(ns) / 1e3 }

// mallocs reads the process-wide count of heap allocations
// (runtime.MemStats.Mallocs). It stops the world briefly, so it is only read
// at phase boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapProbe samples the live heap (runtime.MemStats.HeapAlloc's value)
// through runtime/metrics, which does not stop the world. It keeps the
// highest sample of each window (cut ends one) less base, the heap the
// harness itself holds, and reports the median of the window peaks, so one
// late GC cycle does not decide the figure.
type heapProbe struct {
	sample [1]metrics.Sample
	base   uint64
	peak   uint64
	peaks  []float64
}

func newHeapProbe(base uint64) *heapProbe {
	h := &heapProbe{base: base}
	h.sample[0].Name = "/memory/classes/heap/objects:bytes"
	h.observe()
	return h
}

// heapBase collects garbage and returns the live heap: taken once the
// inputs and the harness's own buffers exist and before any context opens,
// it is the part of every later sample that is not the library's.
func heapBase() uint64 {
	runtime.GC()
	h := newHeapProbe(0)
	return h.peak
}

func (h *heapProbe) observe() {
	metrics.Read(h.sample[:])
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

// cut closes the current window.
func (h *heapProbe) cut() {
	h.peaks = append(h.peaks, float64(h.peak-min(h.base, h.peak))/1e6)
	h.peak = 0
}

// peakMB is the median window peak in megabytes, the open window included.
func (h *heapProbe) peakMB() float64 {
	if h.peak > 0 {
		h.cut()
	}
	return median(h.peaks)
}

// cpuClock reads the runtime's GC CPU time and total used CPU time, so a
// phase's GC share is (gc1-gc0)/(used1-used0).
type cpuClock struct{ gc, used float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

// gcFrac is the GC share of the CPU time used between two readings.
func gcFrac(a, b cpuClock) float64 {
	if b.used <= a.used {
		return 0
	}
	return (b.gc - a.gc) / (b.used - a.used)
}

// latencies collects per-op durations in nanoseconds without allocating on
// the measured path (the backing array is sized before timing starts).
type latencies struct{ ns []uint32 }

func newLatencies(capacity int) *latencies { return &latencies{ns: make([]uint32, 0, capacity)} }

func (l *latencies) add(d time.Duration) {
	l.ns = append(l.ns, uint32(min(d, time.Duration(^uint32(0)))))
}

func (l *latencies) p(p float64) float64 { return usOf(percentile(l.ns, p)) }

// meter collects a measured block's end-to-end figures: heap samples,
// allocations, and per-slice latency p50 and p99, throughput and goodput. A
// slice is a run of sliceOps consecutive ops, a few tens of milliseconds.
// On a shared 2-vCPU machine an op's speed flips between a fast and a slow
// mode every few slices, and the share of slow slices differs between runs.
// The median of a two-mode mixture jumps from one mode to the other as that
// share crosses a half, so the run reports the mean of the per-slice
// figures instead, which moves in proportion to the share, without the
// highest and lowest tenth of slices, which holds off the odd stall.
// Allocations per op do not depend on timing (no empty poll passes run
// while an op is in flight on one goroutine), so they are the plain ratio
// over the run; the allocation count is read at slice boundaries only,
// because reading it stops the world.
type meter struct {
	heap     *heapProbe
	sliceOps int

	start, lastHeap, lastCut time.Time
	ops                      int
	bytes                    int64
	mallocs                  uint64
	slice                    []uint32 // the open slice's op latencies, ns
	allOps                   int      // ops of the closed slices
	allMallocs               uint64   // ... and their allocations

	p50s, p99s, rates, goodputs []float64
}

// newMeter makes a meter for slices of sliceOps. Its heap probe's base is
// set by the caller (see heapBase); begin starts the clock.
func newMeter(sliceOps int) *meter {
	return &meter{heap: newHeapProbe(0), sliceOps: sliceOps, slice: make([]uint32, sliceOps)}
}

// begin opens the first slice and the first heap window.
func (m *meter) begin() {
	m.lastHeap, m.lastCut = time.Now(), time.Now()
	m.restart()
}

// restart opens a slice. It reads the allocation count (a brief
// stop-the-world) between ops, before the slice's clock starts.
func (m *meter) restart() {
	m.ops, m.bytes = 0, 0
	m.mallocs = mallocs()
	m.start = time.Now()
}

// op records one completed op that verified nbytes of payload, ending at now.
func (m *meter) op(d time.Duration, nbytes int, now time.Time) {
	m.slice[m.ops] = uint32(min(d, time.Duration(^uint32(0))))
	m.ops++
	m.bytes += int64(nbytes)
	if now.Sub(m.lastHeap) > 20*time.Millisecond {
		m.heap.observe()
		m.lastHeap = now
		if now.Sub(m.lastCut) > time.Second {
			m.heap.cut()
			m.lastCut = now
		}
	}
	if m.ops >= m.sliceOps {
		m.closeSlice(now)
	}
}

// closeSlice records the open slice's figures and opens the next one.
func (m *meter) closeSlice(now time.Time) {
	secs := now.Sub(m.start).Seconds()
	a := mallocs()
	m.rates = append(m.rates, float64(m.ops)/secs)
	m.goodputs = append(m.goodputs, float64(m.bytes)/secs/1e6)
	m.allOps += m.ops
	m.allMallocs += a - m.mallocs
	lat := m.slice[:m.ops]
	m.p99s = append(m.p99s, usOf(percentile(lat, 99)))
	m.p50s = append(m.p50s, usOf(percentile(lat, 50)))
	m.restart()
}

// set stores the end-to-end metrics (all but setup_s) in res. A trailing
// part-slice counts when it holds at least half a slice, or when the run
// was too short for a whole one.
func (m *meter) set(res *result, now time.Time) {
	if m.ops >= m.sliceOps/2 || (len(m.rates) == 0 && m.ops > 0) {
		m.closeSlice(now)
	}
	res.set("op_p50_us", trimmedMean(m.p50s))
	res.set("op_p99_us", median(m.p99s))
	res.set("ops_per_s", trimmedMean(m.rates))
	res.set("goodput_mbps", trimmedMean(m.goodputs))
	res.set("allocs_per_op", float64(m.allMallocs)/float64(m.allOps))
	res.set("peak_heap_mb", m.heap.peakMB())
}
