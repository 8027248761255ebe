package core

import "runtime"

// Quiesce implements the §3.4 privatization-safety primitive: it blocks until
// every transaction that was active when Quiesce was called has finished
// (committed or aborted). After it returns, no transaction can time-warp
// commit and serialize before the caller's last committed transaction, so
// data made unreachable before the call can safely be accessed without
// transactional barriers.
//
// The wait is implemented over the active-transaction registry that also
// bounds version garbage collection: a transaction that began after the
// fence does not delay quiescence (its start exceeds the fence timestamp).
func (tm *TM) Quiesce() {
	fence := tm.clock.Load()
	for tm.active.MinStart(fence+1) <= fence {
		runtime.Gosched()
	}
}
