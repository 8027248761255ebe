package avstm

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/stm"
)

func TestChoosePointProperty(t *testing.T) {
	// choosePoint must return a point strictly inside (lb, ub) whenever the
	// interval contains one, and report failure otherwise.
	f := func(lb uint64, width uint16) bool {
		lb %= 1 << 40
		ub := lb + uint64(width)
		p, ok := choosePoint(lb, ub)
		hasPoint := ub > lb+1
		if ok != hasPoint {
			return false
		}
		if ok && (p <= lb || p >= ub) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoosePointUnbounded(t *testing.T) {
	p, ok := choosePoint(100, noUpperBound)
	if !ok || p != 100+pointGap {
		t.Fatalf("unbounded choosePoint = %d,%v", p, ok)
	}
}

func TestChoosePointNestedPastCommits(t *testing.T) {
	// Repeated "commit in the past" below a fixed upper bound must keep
	// finding points for many levels (the gap rationale).
	lb, ub := uint64(0), uint64(0)+pointGap
	for depth := 0; depth < 15; depth++ {
		p, ok := choosePoint(lb, ub)
		if !ok {
			t.Fatalf("interval exhausted at depth %d (lb=%d ub=%d)", depth, lb, ub)
		}
		ub = p // next committer must land below this one
	}
}

func TestReaderRegistryCleanup(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)

	// Committed reader deregisters.
	ro := tm.Begin(true)
	ro.Read(x)
	if x.readers.size() != 1 {
		t.Fatalf("reader not registered")
	}
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	if x.readers.size() != 0 {
		t.Fatalf("committed reader still registered")
	}

	// Aborted reader deregisters.
	up := tm.Begin(false)
	up.Read(x)
	tm.Abort(up)
	if x.readers.size() != 0 {
		t.Fatalf("aborted reader still registered")
	}
}

func TestStripedRegistryDedupAndPool(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)

	// Re-reading the same variable must not register twice.
	tx := tm.Begin(false).(*txn)
	tx.Read(x)
	tx.Read(x)
	if got := x.readers.size(); got != 1 {
		t.Fatalf("duplicate registration: size = %d, want 1", got)
	}
	if !tm.Commit(tx) {
		t.Fatalf("commit failed")
	}

	// The unlinked node went back to the descriptor's freelist.
	if tx.free == nil {
		t.Fatalf("node not pooled after commit")
	}
	if tx.free.v != nil {
		t.Fatalf("pooled node still pins its variable")
	}

	// Readers with different home shards land in different stripes.
	a := tm.Begin(true).(*txn)
	b := tm.Begin(true).(*txn)
	b.regShard = (a.regShard + 1) % regShards
	a.Read(x)
	b.Read(x)
	if x.readers.size() != 2 {
		t.Fatalf("striped registrations lost: size = %d, want 2", x.readers.size())
	}
	if !tm.Commit(a) || !tm.Commit(b) {
		t.Fatalf("reader commits failed")
	}
	if x.readers.size() != 0 {
		t.Fatalf("registry not empty after commits: %d", x.readers.size())
	}
}

func TestTimestampsAdvance(t *testing.T) {
	tm := New()
	x := tm.NewVar(0).(*avar)
	var last uint64
	for i := 1; i <= 4; i++ {
		tx := tm.Begin(false)
		tx.Read(x)
		tx.Write(x, i)
		if !tm.Commit(tx) {
			t.Fatalf("commit %d failed", i)
		}
		if x.wts <= last {
			t.Fatalf("wts not strictly increasing: %d then %d", last, x.wts)
		}
		last = x.wts
	}
	// rts records committed readers at or above the last writer's point.
	ro := tm.Begin(true)
	ro.Read(x)
	if !tm.Commit(ro) {
		t.Fatalf("ro commit failed")
	}
	if x.rts <= x.wts {
		t.Fatalf("rts %d should exceed wts %d after a later reader", x.rts, x.wts)
	}
}

// TestDoomedUserErrorRetried reproduces the window the package doc describes:
// a committer of x=y=1 has published y but not yet x, so a transaction reads
// y=1 and x=0 and its body returns a user error built on that state. The
// committer's clamp empties the reader's interval, so the retry loop must
// drop the error and run the body again, which then sees x == y.
func TestDoomedUserErrorRetried(t *testing.T) {
	tm := New()
	x, y := tm.NewVar(0).(*avar), tm.NewVar(0).(*avar)
	const p = pointGap

	// The committer holds the commit mutex for its whole publish-and-clamp.
	tm.commitMu.Lock()
	y.mu.Lock()
	y.value, y.wts = 1, p
	y.mu.Unlock()
	y.readers.clampAll(nil, p)

	attempts := 0
	err := stm.Atomically(tm, true, func(tx stm.Tx) error {
		attempts++
		vy, vx := tx.Read(y), tx.Read(x)
		if attempts == 1 {
			finishCommit(tm, x, p)
		}
		if vx != vy {
			return fmt.Errorf("inconsistent read: x=%v y=%v", vx, vy)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("doomed attempt's user error surfaced: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if got := tm.Stats().Snapshot().Aborts; got != 1 {
		t.Fatalf("aborts = %d, want 1", got)
	}
}

// finishCommit completes the committer of TestDoomedUserErrorRetried in the
// background: it publishes x, clamps x's readers and releases the commit
// mutex.
//
//twm:impure the test drives the committer from inside the doomed attempt
func finishCommit(tm *TM, x *avar, p uint64) {
	go func() {
		x.mu.Lock()
		x.value, x.wts = 1, p
		x.mu.Unlock()
		x.readers.clampAll(nil, p)
		tm.commitMu.Unlock()
	}()
}

// TestValidUserErrorSurfaced: a user error from a transaction whose interval
// still holds a point is returned as is, after one attempt.
func TestValidUserErrorSurfaced(t *testing.T) {
	tm := New()
	x := tm.NewVar(0)
	want := errors.New("user abort")
	attempts := 0
	err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		attempts++
		tx.Write(x, 1)
		return want
	})
	if err != want || attempts != 1 {
		t.Fatalf("err = %v after %d attempts, want %v after 1", err, attempts, want)
	}
}
