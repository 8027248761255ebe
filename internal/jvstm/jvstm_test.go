package jvstm_test

import (
	"sync"
	"testing"

	"repro/internal/dsg"
	"repro/internal/jvstm"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

func factory() stm.TM { return jvstm.New(jvstm.Options{}) }

func TestConformance(t *testing.T) {
	stmtest.Run(t, factory, stmtest.Options{RONeverAborts: true})
}

func TestSerializabilityDSG(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{})
}

func TestSerializabilityDSGHighContention(t *testing.T) {
	dsg.CheckRandom(t, factory(), dsg.RunOptions{Vars: 3, Goroutines: 8, TxPerG: 120, Seed: 42})
}

func TestMultiVersionReadNeverBlocksOrAborts(t *testing.T) {
	tm := jvstm.New(jvstm.Options{GCEveryNCommits: -1})
	x := tm.NewVar("v0")

	ro := tm.Begin(true) // snapshot at version 0
	for i := 1; i <= 3; i++ {
		w := tm.Begin(false)
		w.Write(x, "newer")
		if !tm.Commit(w) {
			t.Fatalf("writer %d failed", i)
		}
	}
	// The old snapshot still reads its version.
	if got := ro.Read(x); got != "v0" {
		t.Fatalf("snapshot read = %v, want v0", got)
	}
	if !tm.Commit(ro) {
		t.Fatalf("read-only commit failed")
	}
	if n := tm.VersionCount(x); n != 4 {
		t.Fatalf("version count = %d, want 4", n)
	}
	if freed := tm.GC(); freed != 3 {
		t.Fatalf("freed = %d, want 3", freed)
	}
}

func TestFailedCommitReleasesWriteLocks(t *testing.T) {
	// Regression: a commit that fails read validation after acquiring write
	// locks must release them, or every later writer of those variables
	// live-locks on lock timeouts.
	tm := factory()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	t1.Read(x)
	t1.Write(y, 1) // t1 will lock y, then fail validating x

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	if tm.Commit(t1) {
		t.Fatalf("t1 should fail classic validation")
	}
	// y must be writable again without retries.
	t3 := tm.Begin(false)
	t3.Write(y, 2)
	if !tm.Commit(t3) {
		t.Fatalf("write lock leaked by failed commit")
	}
	snap := tm.Stats().Snapshot()
	if snap.ByReason["lock-timeout"] != 0 {
		t.Fatalf("lock timeouts recorded: %v", snap.ByReason)
	}
}

func TestClassicValidationAbortsStaleRead(t *testing.T) {
	// JVSTM reads never abort mid-flight (unlike TL2), but the classic
	// commit-time validation still rejects the time-warpable history —
	// exactly the gap TWM closes.
	tm := factory()
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	if got := t1.Read(x); got != 0 {
		t.Fatalf("read = %v", got)
	}
	t1.Write(y, 1)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}
	// The read stays serviceable (multi-version)...
	if got := t1.Read(x); got != 0 {
		t.Fatalf("stale snapshot read = %v, want 0", got)
	}
	// ...but commit-in-the-present validation aborts.
	if tm.Commit(t1) {
		t.Fatalf("JVSTM must abort on stale read at commit")
	}
}

func TestDoomedCommitPassesOnClock(t *testing.T) {
	// Clock-pressure relief: a commit whose read set is already stale is
	// rejected by the pre-lock doom check, before the clock is bumped —
	// failed commits must not age concurrent snapshots.
	tm := jvstm.New(jvstm.Options{})
	x := tm.NewVar(0)
	y := tm.NewVar(0)

	t1 := tm.Begin(false)
	if got := t1.Read(x); got != 0 {
		t.Fatalf("read = %v", got)
	}
	t1.Write(y, 1)

	t2 := tm.Begin(false)
	t2.Write(x, 1)
	if !tm.Commit(t2) {
		t.Fatalf("t2 commit failed")
	}

	before := tm.Clock()
	if tm.Commit(t1) {
		t.Fatalf("t1 must abort on its stale read set")
	}
	if after := tm.Clock(); after != before {
		t.Fatalf("doomed commit bumped the clock: %d -> %d", before, after)
	}
}

// TestSeedClockMonotone races recovery's clock seeding against live
// committers: seeding is a CAS-max, so no committed increment is lost, the
// clock ends at or above the seed, and a lower seed is a no-op.
func TestSeedClockMonotone(t *testing.T) {
	const (
		workers = 8
		perW    = 300
		seedTo  = 5000
	)
	tm := jvstm.New(jvstm.Options{})
	vars := make([]stm.Var, 4)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := vars[w%len(vars)]
			for i := 0; i < perW; i++ {
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					tx.Write(v, tx.Read(v).(int)+1)
					return nil
				})
				if err != nil {
					t.Errorf("atomic increment: %v", err)
					return
				}
			}
		}(w)
	}
	tm.SeedClock(seedTo)
	tm.SeedClock(seedTo / 2)
	wg.Wait()

	if c := tm.Clock(); c < seedTo {
		t.Fatalf("clock %d below seed %d", c, seedTo)
	}
	total := 0
	ro := tm.Begin(true)
	for _, v := range vars {
		total += ro.Read(v).(int)
	}
	tm.Commit(ro)
	if want := workers * perW; total != want {
		t.Fatalf("lost updates across seeding: got %d, want %d", total, want)
	}
}
