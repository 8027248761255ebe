package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a log-linear histogram of nanosecond durations (or any
// non-negative integer): exact below 64, then 32 sub-buckets per power of
// two. A quantile is interpolated linearly inside its bucket, so it is
// within 3.2% of a recorded value and moves smoothly with the data instead
// of stepping from one bucket's midpoint to the next. Counts are
// atomic, so one hist may be shared by goroutines; recording never allocates.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

const histBuckets = 64 + 58*32

func histIndex(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 6
	return 64 + (e-1)*32 + int(v>>uint(e)) - 32
}

// histBucket returns the lowest value bucket i holds and its width.
func histBucket(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := uint((i-64)/32 + 1)
	return float64(uint64((i-64)%32+32) << e), float64(uint64(1) << e)
}

func (h *hist) record(v uint64) {
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) recordDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.record(uint64(d))
}

func (h *hist) count() uint64 { return h.n.Load() }

func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the q-quantile (0 < q <= 1), 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && seen+c >= target {
			lo, width := histBucket(i)
			return lo + width*max(0, target-seen)/c
		}
		seen += c
	}
	lo, width := histBucket(histBuckets - 1)
	return lo + width
}

// us returns the q-quantile of a nanosecond histogram in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
}

// reset zeroes h; callers ensure nothing records concurrently.
func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
	h.sum.Store(0)
}
