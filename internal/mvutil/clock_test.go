package mvutil

import (
	"sync/atomic"
	"testing"
)

// BenchmarkClockPadding advances a clock while other goroutines read a word
// declared next to it — the engine's pattern of commits bumping the clock
// while transactions read the TM's options and profiler pointer. Unpadded,
// every advance invalidates the neighbour's cache line.
func BenchmarkClockPadding(b *testing.B) {
	var padded struct {
		clock     Clock
		neighbour atomic.Uint64
	}
	var unpadded struct {
		clock     atomic.Uint64
		neighbour atomic.Uint64
	}
	run := func(b *testing.B, clock, neighbour *atomic.Uint64) {
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			writer := next.Add(1)%2 == 0
			for pb.Next() {
				if writer {
					clock.Add(1)
				} else {
					neighbour.Load()
				}
			}
		})
	}
	b.Run("padded", func(b *testing.B) { run(b, &padded.clock.Uint64, &padded.neighbour) })
	b.Run("unpadded", func(b *testing.B) { run(b, &unpadded.clock, &unpadded.neighbour) })
}
