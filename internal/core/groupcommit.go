package core

import (
	"repro/internal/mvutil"
	"repro/internal/stm"
)

// This file is the TWM group-commit stage (DESIGN.md §13): the engine-side
// callback behind mvutil.Combiner. The leader installs each batch by running,
// member by member, exactly the sequence of steps the serial Commit performs —
// lock, anti-dependency target check, semi-visible raises and read scan, the
// triad rule, time-warp order assignment, version insertion — with two
// deviations that define the batch:
//
//   - all members' commit locks are acquired before any member is processed,
//     and the shared clock advances once by the member count (base-k+1..base
//     become the members' natural orders in admitted order);
//   - locks held by not-yet-processed members are treated as unlocked during
//     a member's read scan (waitUnlockedBatch), since their versions do not
//     exist yet — just as in the sequential schedule the batch is equivalent
//     to.
//
// Per-member checks run at the member's processing turn, after every earlier
// member's raises and installs, so each member observes exactly the state the
// sequential schedule would show it. Batches are admitted pairwise
// write-write disjoint (overlapping members spill to the next round), which
// is what makes "lock everything, then install in order" deadlock- and
// alias-free.

// commitGrouped publishes tx to the combiner and waits for a leader —
// possibly this goroutine — to resolve it.
func (tm *TM) commitGrouped(tx *txn) bool {
	tx.req.Reset(tx)
	ok, handoff := tm.combiner.Submit(&tx.req, tx.stampShard, tm.commitBatch)
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
		tm.batchClaimed = make(map[*twvar]struct{}, 64)
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
	// Version-memory backpressure, once per round on behalf of every member
	// (the serial path pays this before taking any lock; here no lock is held
	// either). On refusal the whole round fails — escalation already ran, so
	// per-member retries would just repeat the rejection.
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

	// Selection: provably doomed members fail without consuming clock ticks
	// (the batched form of the serial path's pass-on-abort relief), and each
	// surviving member joins the batch iff its sorted write set is disjoint
	// from every earlier member's claims; overlapping members spill to the
	// next round, which keeps the later install loop free of intra-batch
	// write aliasing.
	admitted := tm.batchAdmitted[:0]
	spill := pend[:0]
	clear(tm.batchClaimed)
	for _, m := range pend {
		if r := m.preDoomed(); r != stm.ReasonNone {
			tm.finishMember(m, r)
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
	// id order) before any member is processed. Every update commit of this
	// engine flows through the combiner, so the only possible contender is
	// the GC's try-lock sentinel — a bounded spin suffices, and a timeout
	// fails just that member.
	budget := tm.opts.LockSpinBudget
	locked := admitted[:0]
	for _, m := range admitted {
		m.inBatch = true
		got := true
		for _, e := range m.writeSet.Entries() {
			if !e.Key.lock(m, budget) {
				got = false
				break
			}
			m.locked = append(m.locked, e.Key)
		}
		if !got {
			tm.finishMember(m, stm.ReasonLockTimeout)
			continue
		}
		locked = append(locked, m)
	}
	k := len(locked)
	if k == 0 {
		return spill
	}

	// One shared-clock advance covers the whole batch: members take the
	// natural orders base-k+1..base in admitted order. The advance must come
	// after the lock phase — a snapshot drawn at or above base must find
	// every member's version installed or its variable locked, exactly the
	// guarantee the serial path derives from lock-before-increment.
	base := tm.clock.Add(uint64(k))
	first := base - uint64(k) + 1
	locked[0].stats.RecordClockAdvance()
	locked[0].stats.RecordBatch(k)
	for i, m := range locked {
		m.natOrder = first + uint64(i)
	}

	// Install phase: process members in natural order. Each member's checks
	// run against the state left by every earlier member — raises already
	// applied, versions already installed — so the batch is observationally
	// the sequential schedule m_1; ...; m_k. A member that fails here wastes
	// its reserved tick (a harmless clock gap, same as a serial post-increment
	// abort).
	var charge mvutil.BatchCharge
	logged := tm.batchLogged[:0]
	tm.batchRecs = tm.batchRecs[:0]
	for _, m := range locked {
		// Anti-dependency target check (serial HANDLEWRITE's stamp check),
		// deliberately at the member's turn rather than the lock phase:
		// earlier members' commit-time raises must be visible to it, or a
		// member could miss its target role in a triad and warp into a cycle.
		for _, e := range m.writeSet.Entries() {
			if m.stampMax(e.Key) > m.start {
				m.target = true
				break
			}
		}
		if r := tm.scanMember(m); r != stm.ReasonNone {
			tm.finishMember(m, r)
			continue
		}
		if m.target && m.source {
			tm.finishMember(m, stm.ReasonTriad)
			continue
		}
		if m.minAntiDep == 0 {
			m.twOrder = m.natOrder
		} else {
			m.twOrder = m.minAntiDep // time-warp commit
		}
		ents := m.writeSet.Entries()
		if logger == nil {
			for i := range ents {
				tm.createNewVersion(m, ents[i].Key, ents[i].Val, &charge)
				ents[i].Key.unlock(m)
			}
			m.locked = m.locked[:0]
			m.inBatch = false
			m.stats.RecordCommit(false)
			m.req.Finish(true)
			continue
		}
		// Durability path: install at the member's turn as usual (later
		// members' scans must see these versions), but keep the commit locks —
		// a version is only reachable by other transactions once its variable
		// unlocks, so deferring the unlock to after the batch append preserves
		// append-before-visible without disturbing intra-batch validation.
		for i := range ents {
			tm.createNewVersion(m, ents[i].Key, ents[i].Val, &charge)
		}
		logged = append(logged, m)
		tm.batchRecs = append(tm.batchRecs, m.logRecord())
	}
	tm.batchLogged = logged
	if logger != nil && len(logged) > 0 {
		// One record per clock advance: the batch's survivors in natural
		// order, appended while every survivor's write locks are still held.
		lsn, err := logger.Append(tm.batchRecs)
		for _, m := range logged {
			m.releaseLocks()
			m.inBatch = false
		}
		if err == nil {
			// Group commit: one durability wait covers the whole batch. A
			// Durable failure cannot demote the commits (versions are
			// visible); the latched writer fails the next round at the door
			// and the health watchdog surfaces the stall.
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

// scanMember is the serial HANDLEREAD for one batch member: commit-time
// semi-visible raises, then the anti-dependency scan, with in-batch locks
// treated as unlocked (their versions do not exist yet; see waitUnlockedBatch).
func (tm *TM) scanMember(m *txn) stm.AbortReason {
	budget := tm.opts.LockSpinBudget
	for _, v := range m.readSet {
		m.semiVisibleRead(v, tm.clock.Load())
		if !v.waitUnlockedBatch(m, budget) {
			return stm.ReasonLockTimeout
		}
		ver := v.latest.Load()
		for ver.natOrder > m.start {
			if ver.timeWarped() {
				return stm.ReasonTimeWarpSkip // Rule 2: writer already warped
			}
			if ver.natOrder < m.natOrder {
				if m.minAntiDep == 0 || ver.natOrder < m.minAntiDep {
					m.minAntiDep = ver.natOrder
				}
				m.source = true
			}
			ver = ver.next.Load()
			if ver == nil {
				return stm.ReasonMemoryPressure // trimmed below the snapshot
			}
		}
	}
	return stm.ReasonNone
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
