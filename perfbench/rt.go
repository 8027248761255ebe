package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// rtSample is a reading of the runtime counters the per-layer runtime
// metrics are deltas of.
type rtSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// runtimeLayer turns two readings around ops operations into the runtime
// per-layer metrics.
func runtimeLayer(a, b rtSample, ops int64, out map[string]float64) {
	if ops > 0 {
		out["runtime.allocs_per_op"] = float64(b.allocObjects-a.allocObjects) / float64(ops)
		out["runtime.bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// heapWatch samples the live heap (the bytes the last collection marked
// reachable) every 20 ms while the load runs.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	samples []uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				h.samples = append(h.samples, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns, in MiB, the larger of the sampled
// live heap's 90th percentile and the live heap after a forced collection.
// A high quantile rather than the maximum, because one collection's
// floating garbage sets the maximum of a small heap; the forced reading,
// because a heap that only grows is largest at the end, whenever the last
// concurrent collection ran. Callers read it after their runtime counters,
// so the forced collection is not charged to the workload.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	peak := s[0].Value.Uint64()
	if n := len(h.samples); n > 0 {
		slices.Sort(h.samples)
		peak = max(peak, h.samples[n*9/10])
	}
	return float64(peak) / (1 << 20)
}
