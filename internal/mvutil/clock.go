package mvutil

import "sync/atomic"

// Clock is the global logical commit clock of a multi-version engine, padded
// onto its own 128-byte span (two cache lines, the destructive-interference
// granularity with adjacent-line prefetching). Every update commit advances
// it and every Begin samples it; unpadded, each advance would also evict the
// engine's read-mostly neighbours (options, profiler pointer, pools) from
// every other core's cache. BenchmarkClockPadding measures the gap.
type Clock struct {
	_ [120]byte
	atomic.Uint64
	_ [120]byte
}
