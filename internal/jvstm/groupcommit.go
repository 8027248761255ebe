package jvstm

import (
	"runtime"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// This file is the JVSTM group-commit stage: the same flat-combining batch
// shape as internal/core/groupcommit.go — pairwise write-write-disjoint
// admission with spill, all members locked before any is processed, one clock
// advance of k covering write versions base-k+1..base, members installed in
// version order — but with the classic validation rule applied at each
// member's turn. A member that reads a variable an earlier member wrote sees
// the freshly installed head and aborts with stm.ReasonReadConflict, exactly
// as in the sequential schedule the batch is equivalent to; TWM would warp
// there instead, which is the paper's contrast and it survives batching
// unchanged.

// commitGrouped publishes tx to the combiner and waits for a leader —
// possibly this goroutine — to resolve it.
func (tm *TM) commitGrouped(tx *txn) bool {
	tx.req.Reset(tx)
	ok, handoff := tm.combiner.Submit(&tx.req, tx.shard, tm.commitBatch)
	if handoff {
		tx.stats.RecordHandoff()
	}
	return ok
}

// commitBatch installs one drained batch. It always runs under the combiner's
// leader lock, which guards the TM's batch scratch state; it must resolve
// every request exactly once.
func (tm *TM) commitBatch(reqs []*mvutil.CommitReq) {
	if tm.batchClaimed == nil {
		tm.batchClaimed = make(map[*jvar]struct{}, 64)
	}
	pend := tm.batchPend[:0]
	for _, r := range reqs {
		pend = append(pend, r.Tx.(*txn))
	}
	tm.batchPend = pend
	for len(pend) > 0 {
		pend = tm.commitRound(pend)
	}
	// Drop descriptor references: a resolved member may be recycled by its
	// submitter at any time, and TM-held scratch must not pin it.
	clear(tm.batchPend[:cap(tm.batchPend)])
	clear(tm.batchAdmitted[:cap(tm.batchAdmitted)])
	clear(tm.batchLogged[:cap(tm.batchLogged)])
	clear(tm.batchRecs[:cap(tm.batchRecs)])
}

// commitRound admits a write-write-disjoint subset of pend, installs it under
// one clock advance, and returns the members spilled to the next round.
func (tm *TM) commitRound(pend []*txn) []*txn {
	// Version-memory backpressure, once per round on behalf of every member.
	if tm.opts.Budget != nil && !tm.admitInstall() {
		for _, m := range pend {
			tm.finishMember(m, stm.ReasonMemoryPressure)
		}
		return nil
	}

	// Durability fail-fast: a latched logger can never accept another append,
	// so fail the round at the door — before any lock or clock tick — instead
	// of installing versions whose batch record is known to be unwritable.
	logger := tm.opts.Logger
	if logger != nil {
		if e, ok := logger.(interface{ Err() error }); ok && e.Err() != nil {
			for _, m := range pend {
				tm.finishMember(m, stm.ReasonDurability)
			}
			return nil
		}
	}

	// Selection: members whose read set is already stale fail without
	// consuming clock ticks (the serial path's pass-on-abort relief — a head
	// version number never decreases, so the verdict is final), and each
	// survivor joins the batch iff its write set is disjoint from every
	// earlier member's claims.
	admitted := tm.batchAdmitted[:0]
	spill := pend[:0]
	clear(tm.batchClaimed)
	for _, m := range pend {
		stale := false
		for _, v := range m.readSet {
			if v.head.Load().ver > m.start {
				stale = true
				break
			}
		}
		if stale {
			tm.finishMember(m, stm.ReasonReadConflict)
			continue
		}
		ents := m.writeSet.Entries()
		stm.SortEntriesByID(ents)
		overlap := false
		for i := range ents {
			if _, ok := tm.batchClaimed[ents[i].Key]; ok {
				overlap = true
				break
			}
		}
		if overlap {
			m.stats.RecordBatchSpills(1)
			spill = append(spill, m)
			continue
		}
		for i := range ents {
			tm.batchClaimed[ents[i].Key] = struct{}{}
		}
		admitted = append(admitted, m)
	}
	tm.batchAdmitted = admitted

	// Lock phase: acquire every admitted member's commit locks (per member in
	// id order) before any member is processed. Every update commit flows
	// through the combiner, so the only possible contender is the GC's
	// try-lock sentinel.
	locked := admitted[:0]
	for _, m := range admitted {
		m.inBatch = true
		got := true
		for _, e := range m.writeSet.Entries() {
			if !m.lockVar(e.Key) {
				got = false
				break
			}
		}
		if !got {
			tm.finishMember(m, stm.ReasonWriteConflict)
			continue
		}
		locked = append(locked, m)
	}
	k := len(locked)
	if k == 0 {
		return spill
	}

	// One shared-clock advance covers the whole batch: members take write
	// versions base-k+1..base in admitted order. The advance comes after the
	// lock phase, preserving the serial invariant that a committer holds all
	// its write locks when it draws its version number — a reader whose
	// snapshot covers a member's version waits on that member's lock until
	// the version is installed.
	base := tm.clock.Add(uint64(k))
	first := base - uint64(k) + 1
	locked[0].stats.RecordClockAdvance()
	locked[0].stats.RecordBatch(k)

	// Install phase: validate and publish members in version order. Each
	// member validates against the heads left by every earlier member, so the
	// batch is observationally the sequential schedule m_1; ...; m_k. The
	// serial wv == start+1 shortcut needs no special casing here: member i's
	// write version is at least first + i > start_j for every member j (the
	// batch's Add follows every member's Begin), so the shortcut can only
	// fire for the first member, for which it is the ordinary TL2 argument.
	var charge mvutil.BatchCharge
	logged := tm.batchLogged[:0]
	tm.batchRecs = tm.batchRecs[:0]
	for i, m := range locked {
		wv := first + uint64(i)
		if wv != m.start+1 {
			r := stm.ReasonNone
			for _, v := range m.readSet {
				if !m.waitUnlockedBatch(v) {
					r = stm.ReasonLockTimeout
					break
				}
				if v.head.Load().ver > m.start {
					r = stm.ReasonReadConflict
					break
				}
			}
			if r != stm.ReasonNone {
				tm.finishMember(m, r)
				continue
			}
		}
		ents := m.writeSet.Entries()
		for j := range ents {
			v, val := ents[j].Key, ents[j].Val
			nv := &jversion{value: val, ver: wv}
			nv.next.Store(v.head.Load())
			v.head.Store(nv)
			if tm.opts.Budget != nil {
				charge.Add(1, mvutil.ApproxVersionBytes(val))
			}
			if tm.history.Load() {
				v.histMu.Lock()
				v.hist = append(v.hist, stm.VersionRecord{Value: val, Serial: wv})
				v.histMu.Unlock()
			}
			if logger == nil {
				v.owner.CompareAndSwap(m, nil)
			}
		}
		if logger == nil {
			m.locked = m.locked[:0]
			m.inBatch = false
			m.stats.RecordCommit(false)
			m.req.Finish(true)
			continue
		}
		// Durability path: keep the commit locks — a head is only readable
		// once its variable unlocks (readers wait owners out), so deferring
		// the unlock to after the batch append preserves append-before-visible
		// without disturbing intra-batch validation.
		logged = append(logged, m)
		tm.batchRecs = append(tm.batchRecs, m.logRecord(wv))
	}
	tm.batchLogged = logged
	if logger != nil && len(logged) > 0 {
		// One record per clock advance: the batch's survivors in version
		// order, appended while every survivor's write locks are still held.
		lsn, err := logger.Append(tm.batchRecs)
		for _, m := range logged {
			m.releaseLocks()
			m.inBatch = false
		}
		if err == nil {
			// Group commit: one durability wait covers the whole batch.
			logger.Durable(lsn) //nolint:errcheck
		}
		// On append failure the members were already installed, so the batch
		// stands in memory un-logged; acks must be gated on Writer.Err by
		// callers that promise zero loss (see internal/server).
		for _, m := range logged {
			m.stats.RecordCommit(false)
			m.req.Finish(true)
		}
	}
	charge.Flush(tm.opts.Budget)
	tm.maybeGCBatch(k)
	return spill
}

// waitUnlockedBatch is the leader's variant of waitUnlocked: locks held by
// other members of the batch being installed count as unlocked — their heads
// are exactly the heads the sequential schedule would show this member, since
// not-yet-processed members have published nothing. Only the GC's try-lock
// sentinel (never in a batch) is genuinely waited out.
func (m *txn) waitUnlockedBatch(v *jvar) bool {
	for spins := 0; ; spins++ {
		o := v.owner.Load()
		if o == nil || o == m || o.inBatch {
			return true
		}
		if spins >= m.tm.opts.LockSpinBudget {
			return false
		}
		runtime.Gosched()
	}
}

// finishMember resolves one batch member as aborted: locks released, stats and
// descriptor reason recorded. Everything the submitter may observe is written
// before Finish — it can recycle the descriptor the moment Done reports true.
func (tm *TM) finishMember(m *txn, reason stm.AbortReason) {
	m.inBatch = false
	m.releaseLocks()
	m.stats.RecordAbort(reason)
	m.lastReason = reason
	m.req.Finish(false)
}

// maybeGCBatch is maybeGC for a batch of k commits: the commit counter
// advances by k at once, and a pass runs if the count crossed a multiple of
// the configured period anywhere inside the jump.
func (tm *TM) maybeGCBatch(k int) {
	every := tm.opts.GCEveryNCommits
	if every < 0 || k == 0 {
		return
	}
	e := uint64(every)
	n := tm.gcCount.Add(uint64(k))
	if n/e != (n-uint64(k))/e {
		tm.GC()
	}
}
