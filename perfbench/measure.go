package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 when empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 { return quantile(xs, 0) }

// heapProbe samples the live heap of an untimed repetition: each sample
// forces a collection and reads the heap in use, less the heap before the
// repetition began. The largest sample is the repetition's peak.
type heapProbe struct {
	rs      *runtimeStats
	base    uint64
	every   int // Steps between samples
	peak    uint64
	samples int
}

func newHeapProbe(rs *runtimeStats, every int) *heapProbe {
	runtime.GC()
	return &heapProbe{rs: rs, base: rs.heap(), every: max(every, 1)}
}

// sample records one sample; a nil receiver does nothing.
func (h *heapProbe) sample() {
	if h == nil {
		return
	}
	runtime.GC()
	h.samples++
	if live := h.rs.heap(); live > h.base {
		h.peak = max(h.peak, live-h.base)
	}
}

// stepDue reports whether the heap is sampled after the i-th Step.
func (h *heapProbe) stepDue(i int) bool { return h != nil && i%h.every == 0 }

// runtimeStats reads the process-wide counters the benchmark samples:
// cumulative heap allocations, live heap bytes and completed GC cycles.
// runtime/metrics reads them without stopping the world.
type runtimeStats struct {
	samples []metrics.Sample
}

func newRuntimeStats() *runtimeStats {
	return &runtimeStats{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (r *runtimeStats) read(i int) uint64 {
	metrics.Read(r.samples[i : i+1])
	return r.samples[i].Value.Uint64()
}

func (r *runtimeStats) allocs() uint64   { return r.read(0) }
func (r *runtimeStats) heap() uint64     { return r.read(1) }
func (r *runtimeStats) gcCycles() uint64 { return r.read(2) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
