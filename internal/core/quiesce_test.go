package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/stm"
)

func TestQuiesceNoActivity(t *testing.T) {
	tm := newTM()
	done := make(chan struct{})
	go func() {
		tm.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Quiesce hung with no active transactions")
	}
}

func TestQuiesceWaitsForActive(t *testing.T) {
	tm := newTM()
	x := tm.NewVar(0)

	tx := tm.Begin(false)
	tx.Read(x)

	released := make(chan struct{})
	quiesced := make(chan struct{})
	go func() {
		tm.Quiesce()
		close(quiesced)
	}()

	select {
	case <-quiesced:
		t.Fatalf("Quiesce returned while a transaction was active")
	case <-time.After(50 * time.Millisecond):
	}
	tm.Abort(tx)
	close(released)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatalf("Quiesce did not return after the transaction finished")
	}
	<-released
}

func TestQuiesceIgnoresLaterTransactions(t *testing.T) {
	// Transactions that begin after the fence must not delay quiescence:
	// start a continuous stream of new transactions and check Quiesce still
	// returns.
	tm := newTM()
	x := tm.NewVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
				tx.Write(x, tx.Read(x).(int)+1)
				return nil
			})
		}
	}()
	done := make(chan struct{})
	go func() {
		tm.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Quiesce starved by later transactions")
	}
	close(stop)
	wg.Wait()
}

func TestPrivatizationPattern(t *testing.T) {
	// The privatization idiom: detach a structure transactionally, quiesce,
	// then read it non-transactionally. The detached value must reflect all
	// transactional updates, including time-warped ones.
	tm := newTM()
	shared := tm.NewVar(0)
	handle := tm.NewVar(true) // true = shared, false = privatized

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
					if !tx.Read(handle).(bool) {
						return nil // already privatized
					}
					tx.Write(shared, tx.Read(shared).(int)+1)
					return nil
				})
			}
		}()
	}

	// Privatize midway.
	time.Sleep(time.Millisecond)
	if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		tx.Write(handle, false)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tm.Quiesce()

	// Safe non-transactional read: snapshot via a read-only transaction is
	// used here only to extract the value; after quiescence no concurrent
	// writer can still commit into the privatized variable.
	var frozen int
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		frozen = tx.Read(shared).(int)
		return nil
	})
	wg.Wait()
	var final int
	_ = stm.Atomically(tm, true, func(tx stm.Tx) error {
		final = tx.Read(shared).(int)
		return nil
	})
	if frozen != final {
		t.Fatalf("writes slipped past privatization: %d then %d", frozen, final)
	}
}

// TestQuiesceAndGC: once Quiesce returns no snapshot can need an old
// version, so a GC pass leaves exactly the newest version of every variable.
func TestQuiesceAndGC(t *testing.T) {
	tm := newTM()
	vars := make([]stm.Var, 8)
	for i := range vars {
		vars[i] = tm.NewVar(0)
	}
	for round := 1; round <= 5; round++ {
		for _, v := range vars {
			tx := tm.Begin(false)
			tx.Write(v, round)
			if !tm.Commit(tx) {
				t.Fatalf("commit failed")
			}
		}
	}
	tm.Quiesce()
	tm.GC()
	for i, v := range vars {
		if n := tm.VersionCount(v); n != 1 {
			t.Fatalf("var %d retains %d versions after GC, want 1", i, n)
		}
		ro := tm.Begin(true)
		if got := ro.Read(v); got != 5 {
			t.Fatalf("var %d = %v after GC, want 5", i, got)
		}
		tm.Commit(ro)
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
	tm := newTM()
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
