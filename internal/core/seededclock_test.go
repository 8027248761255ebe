package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dsg"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// Conformance and serializability batteries on an engine whose clock was
// seeded before the first transaction, as recovery does after replaying a
// log whose highest serial is large. The test names and their K subtests
// date from the partitioned clock the engine no longer has: each K now picks
// the seed K<<32, so snapshots, write versions and time-warp orders all live
// above 32 bits.

func seededClock(k int) uint64 { return uint64(k) << 32 }

func seededFactory(k int, opts core.Options) func() stm.TM {
	return func() stm.TM {
		tm := core.New(opts)
		tm.SeedClock(seededClock(k))
		return tm
	}
}

func TestConformanceClockShards(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			stmtest.Run(t, seededFactory(k, core.Options{}), stmtest.Options{RONeverAborts: true})
		})
	}
}

func TestConformanceClockShardsGroupCommit(t *testing.T) {
	stmtest.Run(t, seededFactory(4, core.Options{GroupCommit: true}),
		stmtest.Options{RONeverAborts: true})
}

func TestSerializabilityDSGClockShards(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			tm := seededFactory(k, core.Options{})()
			dsg.CheckRandom(t, tm, dsg.RunOptions{Seed: uint64(k)})
			if got := tm.(*core.TM).Clock(); got <= seededClock(k) {
				t.Fatalf("clock %d did not advance past its seed %d", got, seededClock(k))
			}
		})
	}
}

func TestSerializabilityDSGClockShardsHighContention(t *testing.T) {
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, seededFactory(k, core.Options{})(),
				dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: uint64(100 + k)})
		})
	}
}

func TestSerializabilityDSGClockShardsReadHeavy(t *testing.T) {
	dsg.CheckRandom(t, seededFactory(4, core.Options{})(),
		dsg.RunOptions{Vars: 6, Goroutines: 6, TxPerG: 150, ReadOnlyP: 0.6, Seed: 17})
}

func TestSerializabilityDSGClockShardsAblation(t *testing.T) {
	dsg.CheckRandom(t, seededFactory(4, core.Options{DisableTimeWarp: true})(),
		dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: 23})
}

func TestSerializabilityDSGClockShardsGroupCommit(t *testing.T) {
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			dsg.CheckRandom(t, seededFactory(k, core.Options{GroupCommit: true})(),
				dsg.RunOptions{Vars: 4, Goroutines: 8, TxPerG: 120, Seed: uint64(200 + k)})
		})
	}
}
