package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs and how many
// samples lie strictly beyond its rank.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailMean returns the mean of the samples from the nearest-rank
// q-quantile up (the slowest 1-q of xs, the quantile's own rank
// included) and how many samples that is. Unlike the quantile alone it
// does not rest on the one sample that happens to hold the rank.
func tailMean(xs []float64, q float64) (v float64, n int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	_, beyond := quantile(s, q)
	tail := s[len(s)-beyond-1:]
	var sum float64
	for _, x := range tail {
		sum += x
	}
	return sum / float64(len(tail)), len(tail)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapSampler records the peak live heap while it runs: the largest
// heap the collector found reachable at the end of a cycle. The runtime
// keeps no high-water mark, so it samples every millisecond. Unlike the
// allocated heap it does not depend on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine, read after done
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// memDelta measures allocation and GC activity across a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// end returns MiB allocated, GC cycles and total GC pause (ms) since start.
func (m *memDelta) end() (allocMB float64, cycles float64, pauseMS float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20),
		float64(after.NumGC - m.before.NumGC),
		float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}
