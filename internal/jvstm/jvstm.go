// Package jvstm implements a JVSTM-style multi-version STM (Fernandes and
// Cachopo, PPoPP 2011) over the common stm API: per-variable version lists
// ordered by a global commit clock, classic commit-time validation for update
// transactions, and abort-free read-only transactions (mv-permissiveness for
// readers). It is the multi-version baseline of the TWM paper's evaluation.
//
// The original JVSTM uses a lock-free commit; as with the TWM prototype, that
// concern is orthogonal to what the paper measures here (version maintenance
// cost and the classic validation rule), so commit uses per-variable locks
// acquired in id order, mirroring internal/core for a like-for-like
// comparison.
package jvstm

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mvutil"
	"repro/internal/stm"
)

// Options tunes a JVSTM instance. The zero value uses defaults.
type Options struct {
	// GCEveryNCommits triggers version garbage collection each time this
	// many update transactions commit; 0 selects the default, negative
	// disables automatic GC.
	GCEveryNCommits int
	// LockSpinBudget bounds spinning on a peer's commit lock.
	LockSpinBudget int
	// Budget, when non-nil, caps the engine's version memory exactly as in
	// internal/core (see mvutil.VersionBudget and DESIGN.md §11): soft
	// pressure triggers eager GC, hard pressure trims chains to
	// MaxVersionDepth and, as a last resort, fails commits with
	// stm.ReasonMemoryPressure. Nil leaves version memory unbounded.
	Budget *mvutil.VersionBudget
	// MaxVersionDepth is the per-variable chain depth the hard-pressure trim
	// cuts to. 0 selects the default; only consulted when Budget is set.
	MaxVersionDepth int
	// GroupCommit routes every update commit through a flat-combining
	// leader/follower stage exactly as in internal/core (DESIGN.md §13), with
	// the classic validation rule applied per batch member: intra-batch
	// read-write conflicts abort where TWM warps — the paper's contrast,
	// preserved under batching. The engine's name becomes "jvstm-gc".
	GroupCommit bool
	// GroupMaxBatch caps the members installed per combiner batch; 0 selects
	// mvutil.DefaultMaxBatch. Only consulted when GroupCommit is set.
	GroupMaxBatch int
	// GroupHooks injects the combiner's fault points (internal/chaos).
	GroupHooks *mvutil.BatchHooks
	// Logger, when non-nil, receives every update commit's write set under
	// the two-phase stm.CommitLogger protocol, exactly as in internal/core:
	// Append runs with the write locks held, before any version is visible;
	// Durable runs after install, before the commit is acknowledged. JVSTM
	// never time-warps, so records carry Tie == Serial (== the write version).
	Logger stm.CommitLogger
}

const (
	defaultGCEvery   = 4096
	defaultSpinLimit = 2048
	defaultTrimDepth = 8
)

// TM is a JVSTM instance.
type TM struct {
	opts  Options
	clock mvutil.Clock
	stats stm.Stats
	prof  atomic.Pointer[stm.Profiler]

	active  *mvutil.ActiveSet
	gcCount atomic.Uint64
	gcMu    sync.Mutex

	// txns pools transaction descriptors across attempts; see Recycle.
	txns sync.Pool

	varsMu  sync.Mutex
	vars    []*jvar
	history atomic.Bool

	// combiner is the flat-combining commit stage; nil unless
	// Options.GroupCommit. The scratch slices and claim map are leader state,
	// guarded by the combiner's leader lock. shardSeq deals out sticky
	// publication stripes, one per descriptor lifetime.
	combiner      *mvutil.Combiner
	shardSeq      atomic.Uint32
	batchPend     []*txn
	batchAdmitted []*txn
	batchClaimed  map[*jvar]struct{}
	// batchLogged/batchRecs are the leader's durability scratch (Logger
	// only): members whose unlocks are deferred until the batch record is
	// appended, and the one record per clock advance handed to the logger.
	batchLogged []*txn
	batchRecs   []stm.CommitRecord
}

// New returns a JVSTM instance.
func New(opts Options) *TM {
	if opts.GCEveryNCommits == 0 {
		opts.GCEveryNCommits = defaultGCEvery
	}
	if opts.LockSpinBudget == 0 {
		opts.LockSpinBudget = defaultSpinLimit
	}
	if opts.MaxVersionDepth <= 0 {
		opts.MaxVersionDepth = defaultTrimDepth
	}
	tm := &TM{opts: opts}
	if opts.GroupCommit {
		tm.combiner = mvutil.NewCombiner(opts.GroupMaxBatch, opts.GroupHooks)
	}
	tm.clock.Store(1)
	tm.active = mvutil.NewActiveSet()
	tm.txns.New = func() any {
		return &txn{tm: tm, stats: tm.stats.Shard(), shard: int(tm.shardSeq.Add(1))}
	}
	return tm
}

// Name implements stm.TM.
func (tm *TM) Name() string {
	if tm.opts.GroupCommit {
		return "jvstm-gc"
	}
	return "jvstm"
}

// MultiVersion implements stm.MultiVersioned.
func (tm *TM) MultiVersion() bool { return true }

// Stats implements stm.TM.
func (tm *TM) Stats() *stm.Stats { return &tm.stats }

// SetProfiler implements stm.Profilable.
func (tm *TM) SetProfiler(p *stm.Profiler) { tm.prof.Store(p) }

// Clock exposes the current commit clock value (health watchdog, tests).
func (tm *TM) Clock() uint64 { return tm.clock.Load() }

// ActiveSet exposes the active-transaction registry (health watchdog).
func (tm *TM) ActiveSet() *mvutil.ActiveSet { return tm.active }

// Budget exposes the configured version budget; nil when unbounded.
func (tm *TM) Budget() *mvutil.VersionBudget { return tm.opts.Budget }

// CommitLogger exposes the configured durability logger; nil when the engine
// runs without a write-ahead log (health watchdog, server wiring).
func (tm *TM) CommitLogger() stm.CommitLogger { return tm.opts.Logger }

// SeedClock raises the commit clock to at least v. Recovery-only: call it
// once, after replaying a WAL and before the first transaction, so
// post-recovery commits draw write versions strictly above every recovered
// serial. Recovered values themselves are installed as initial versions
// (version 0) via NewVar.
func (tm *TM) SeedClock(v uint64) {
	for {
		cur := tm.clock.Load()
		if cur >= v || tm.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

// jversion is one committed value (a JVSTM "body").
type jversion struct {
	value stm.Value
	ver   uint64
	next  atomic.Pointer[jversion]
}

// jvar is the transactional variable (a VBox).
type jvar struct {
	id    uint64
	owner atomic.Pointer[txn]
	head  atomic.Pointer[jversion]

	histMu sync.Mutex
	hist   []stm.VersionRecord
}

// VarID implements stm.IDedVar (commit-lock ordering).
func (v *jvar) VarID() uint64 { return v.id }

// NewVar implements stm.TM.
func (tm *TM) NewVar(initial stm.Value) stm.Var {
	v := &jvar{}
	v.head.Store(&jversion{value: initial})
	if b := tm.opts.Budget; b != nil {
		// The initial version is charged too: GC may free it once newer
		// versions exist, and releases must balance installs.
		b.Install(1, mvutil.ApproxVersionBytes(initial))
	}
	tm.varsMu.Lock()
	v.id = uint64(len(tm.vars)) + 1
	tm.vars = append(tm.vars, v)
	tm.varsMu.Unlock()
	return v
}

// txn is a JVSTM transaction. Descriptors are pooled (see Recycle); the
// slices keep their backing arrays across reuse.
type txn struct {
	tm       *TM
	stats    *stm.StatShard // striped counters; assigned once per descriptor
	readOnly bool
	start    uint64

	readSet  []*jvar
	writeSet stm.WriteSet[*jvar]
	locked   []*jvar
	slot     mvutil.Slot

	lastReason stm.AbortReason // why the last Commit returned false

	// shard is this descriptor's sticky combiner publication stripe. req and
	// inBatch serve the group-commit stage exactly as in internal/core: req is
	// the embedded combiner request, and inBatch — written only by the leader,
	// under the combiner's leader lock, always false by the time the request
	// resolves — marks membership in the batch being installed.
	shard   int
	req     mvutil.CommitReq
	inBatch bool

	// logRecs/logWrites are scratch for the commit-logger hand-off; the logger
	// must not retain them past Append (stm.CommitLogger contract).
	logRecs   []stm.CommitRecord
	logWrites []stm.LoggedWrite
}

// logRecord builds this transaction's commit record over the scratch slices.
// JVSTM serializes in natural (write-version) order, so Tie == Serial == wv.
func (tx *txn) logRecord(wv uint64) stm.CommitRecord {
	ents := tx.writeSet.Entries()
	w := tx.logWrites[:0]
	for i := range ents {
		w = append(w, stm.LoggedWrite{VarID: ents[i].Key.id, Value: ents[i].Val})
	}
	tx.logWrites = w
	return stm.CommitRecord{Serial: wv, Tie: wv, Writes: w}
}

// ReadOnly implements stm.Tx.
func (tx *txn) ReadOnly() bool { return tx.readOnly }

// LastAbortReason implements stm.AbortReasoner: the reason of the most recent
// commit-time abort (read-path aborts travel in the retry signal).
func (tx *txn) LastAbortReason() stm.AbortReason { return tx.lastReason }

// failCommit records a commit-time abort with its reason, releases held locks
// and reports failure.
func (tx *txn) failCommit(reason stm.AbortReason) bool {
	tx.releaseLocks()
	tx.stats.RecordAbort(reason)
	tx.lastReason = reason
	return false
}

// Begin implements stm.TM.
func (tm *TM) Begin(readOnly bool) stm.Tx {
	tx := tm.txns.Get().(*txn)
	tx.readOnly = readOnly
	tx.stats.RecordStart()
	// One clock sample serves both the active-set registration and the
	// snapshot: the GC bound is registered before the snapshot is used and
	// equals it, so the collector can never trim a version this transaction
	// may read.
	c0 := tm.clock.Load()
	tm.active.Register(&tx.slot, c0)
	tx.start = c0
	return tx
}

// Recycle implements stm.TxRecycler: reset the descriptor and return it to
// the pool. Only stm.Atomically calls this, after an attempt has fully
// finished; manual Begin/Commit users never recycle.
func (tm *TM) Recycle(txi stm.Tx) {
	tx, ok := txi.(*txn)
	if !ok {
		return
	}
	tx.readSet = stm.ResetVarSlice(tx.readSet)
	tx.writeSet.Reset()
	tx.locked = stm.ResetVarSlice(tx.locked)
	tx.start = 0
	tx.lastReason = stm.ReasonNone
	tm.txns.Put(tx)
}

// Read implements stm.Tx: multi-version reads never conflict-abort — the
// transaction walks back to the newest version at or before its snapshot.
//
// The read must first wait out a committer holding the variable's lock: a
// transaction that began after the committer drew its version number (so the
// new version belongs in this snapshot) could otherwise read the stale head
// while the committer is still publishing. The committer holds the lock from
// before its clock increment until after the insertion, so waiting here
// closes that window; readers hold no locks, so the wait always terminates.
func (tx *txn) Read(v stm.Var) stm.Value {
	tv := v.(*jvar)
	prof := tx.tm.prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
	}
	if !tx.readOnly {
		if val, ok := tx.writeSet.Get(tv); ok {
			if prof != nil {
				prof.AddRead(prof.Now() - t0)
			}
			return val
		}
		tx.readSet = append(tx.readSet, tv)
	}
	for tv.owner.Load() != nil {
		runtime.Gosched()
	}
	ver := tv.head.Load()
	for ver.ver > tx.start {
		ver = ver.next.Load()
		if ver == nil {
			// A hard-pressure trim reclaimed the version this snapshot needs
			// (trim only cuts a chain suffix, so a walk that terminates
			// normally saw everything it would have pre-trim). Restart with a
			// fresh snapshot, which the trim depth always serves — the one
			// documented case where a read-only transaction aborts.
			tx.stats.RecordAbort(stm.ReasonMemoryPressure)
			stm.Retry(stm.ReasonMemoryPressure)
		}
	}
	if prof != nil {
		prof.AddRead(prof.Now() - t0)
	}
	return ver.value
}

// Write implements stm.Tx.
func (tx *txn) Write(v stm.Var, val stm.Value) {
	if tx.readOnly {
		panic("jvstm: Write on a read-only transaction")
	}
	tx.writeSet.Put(v.(*jvar), val)
}

// Abort implements stm.TM.
func (tm *TM) Abort(txi stm.Tx) {
	tx := txi.(*txn)
	tx.releaseLocks()
	tm.active.Unregister(&tx.slot)
}

func (tx *txn) releaseLocks() {
	for _, v := range tx.locked {
		v.owner.CompareAndSwap(tx, nil)
	}
	tx.locked = tx.locked[:0]
}

// Commit implements stm.TM: lock write set, classic validation of the read
// set ("commit in the present"), publish versions at the new clock value.
func (tm *TM) Commit(txi stm.Tx) bool {
	tx := txi.(*txn)
	defer tm.active.Unregister(&tx.slot)
	if tx.readOnly || tx.writeSet.Len() == 0 {
		tx.stats.RecordCommit(tx.readOnly)
		return true
	}

	if tm.combiner != nil {
		// Group commit: publish the write set to the flat-combining stage and
		// let a leader — possibly this goroutine — perform the whole protocol
		// batched (groupcommit.go).
		return tm.commitGrouped(tx)
	}

	// Version-memory backpressure: before taking any commit lock, make sure
	// the budget can absorb this transaction's installs (see admitInstall).
	if tm.opts.Budget != nil && !tm.admitInstall() {
		return tx.failCommit(stm.ReasonMemoryPressure)
	}

	prof := tm.prof.Load()
	var t0 int64
	if prof != nil {
		t0 = prof.Now()
		defer prof.AddTx()
	}

	// Clock-pressure relief ("pass on abort", DESIGN.md §12): a commit whose
	// read set is already stale is certain to fail the authoritative
	// validation below — a head version number never decreases — so abort it
	// here, before any lock is taken and before the clock is bumped. Failed
	// commits that bump the clock age every concurrent snapshot for nothing;
	// passing on the bump also makes the wv == start+1 validation shortcut
	// below fire far more often. This check takes no lock waits: a head
	// mid-publication is left to the authoritative pass.
	for _, v := range tx.readSet {
		if v.head.Load().ver > tx.start {
			return tx.failCommit(stm.ReasonReadConflict)
		}
	}

	// Lookups are over: sort the write entries in place by id (deadlock
	// avoidance) without sort.Slice's closure allocations.
	ents := tx.writeSet.Entries()
	stm.SortEntriesByID(ents)
	for i := range ents {
		if !tx.lockVar(ents[i].Key) {
			return tx.failCommit(stm.ReasonWriteConflict)
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddCommit(now - t0)
		t0 = now
	}

	// Draw the write version before validating (as TL2 does): every
	// committer with a smaller version number already held all its write
	// locks when it drew its number, so the lock wait below guarantees the
	// validation observes its versions. Drawing the number after validation
	// would let a reader outrun a writer it missed and still serialize after
	// it.
	wv := tm.clock.Add(1)

	// Classic validation: abort if any read variable has a version newer
	// than our snapshot. A concurrent committer that holds a lock on a read
	// variable is waited out (bounded) so we validate a stable head.
	//
	// The wv == start+1 shortcut (TL2's rv+1 rule): our increment directly
	// followed the clock value we began at, so every other committer drew
	// either at or below start — its publications are inside our snapshot,
	// and the read barrier already waited those out — or above wv, in which
	// case it serializes after us and cannot have produced a version our
	// reads missed. Nothing remains to validate.
	if wv != tx.start+1 {
		for _, v := range tx.readSet {
			if !tx.waitUnlocked(v) {
				return tx.failCommit(stm.ReasonLockTimeout)
			}
			if v.head.Load().ver > tx.start {
				if prof != nil {
					prof.AddReadSetVal(prof.Now() - t0)
				}
				return tx.failCommit(stm.ReasonReadConflict)
			}
		}
	}
	if prof != nil {
		now := prof.Now()
		prof.AddReadSetVal(now - t0)
		t0 = now
	}

	// Durability: the commit is decided — append the write set before any
	// version becomes visible (the locks are still held, and readers wait
	// them out), so the log's append order respects the reads-from order. A
	// refused append fails the commit with nothing installed.
	var lsn stm.LSN
	if l := tm.opts.Logger; l != nil {
		tx.logRecs = append(tx.logRecs[:0], tx.logRecord(wv))
		var err error
		if lsn, err = l.Append(tx.logRecs); err != nil {
			return tx.failCommit(stm.ReasonDurability)
		}
	}

	for i := range ents {
		v, val := ents[i].Key, ents[i].Val
		nv := &jversion{value: val, ver: wv}
		nv.next.Store(v.head.Load())
		v.head.Store(nv)
		if b := tm.opts.Budget; b != nil {
			b.Install(1, mvutil.ApproxVersionBytes(val))
		}
		if tm.history.Load() {
			v.histMu.Lock()
			v.hist = append(v.hist, stm.VersionRecord{Value: val, Serial: wv})
			v.histMu.Unlock()
		}
		v.owner.CompareAndSwap(tx, nil)
	}
	tx.locked = tx.locked[:0]
	if prof != nil {
		prof.AddCommit(prof.Now() - t0)
	}
	tx.stats.RecordCommit(false)
	tm.maybeGC()
	if l := tm.opts.Logger; l != nil {
		// Wait out the fsync policy before acknowledging. A Durable failure
		// cannot demote the commit (its versions are visible); the latched
		// writer fails the next Append and the health watchdog surfaces it.
		l.Durable(lsn) //nolint:errcheck
	}
	return true
}

func (tx *txn) lockVar(v *jvar) bool {
	for spins := 0; ; spins++ {
		if v.owner.CompareAndSwap(nil, tx) {
			tx.locked = append(tx.locked, v)
			return true
		}
		if spins >= tx.tm.opts.LockSpinBudget {
			return false
		}
		runtime.Gosched()
	}
}

func (tx *txn) waitUnlocked(v *jvar) bool {
	for spins := 0; ; spins++ {
		o := v.owner.Load()
		if o == nil || o == tx {
			return true
		}
		if spins >= tx.tm.opts.LockSpinBudget {
			return false
		}
		runtime.Gosched()
	}
}

// gcOwner is the sentinel lock holder used by the garbage collector.
var gcOwner = new(txn)

func (tm *TM) maybeGC() {
	every := tm.opts.GCEveryNCommits
	if every < 0 {
		return
	}
	if tm.gcCount.Add(1)%uint64(every) != 0 {
		return
	}
	tm.GC()
}

// GC trims version tails below the oldest active snapshot, exactly as in
// internal/core but with the single (natural) time line. Passes are
// serialized so each pass's bound is at least its predecessor's (an older
// bound walking a fresher-truncated list would run off the tail).
func (tm *TM) GC() int {
	tm.gcMu.Lock()
	defer tm.gcMu.Unlock()
	return tm.gcLocked()
}

// gcLocked is the collection pass body; the caller holds gcMu.
func (tm *TM) gcLocked() int {
	bound := tm.active.MinStart(tm.clock.Load())
	tm.varsMu.Lock()
	vars := tm.vars
	tm.varsMu.Unlock()

	freed := 0
	var freedBytes int64
	for _, v := range vars {
		if !v.owner.CompareAndSwap(nil, gcOwner) {
			continue
		}
		ver := v.head.Load()
		for ver.ver > bound {
			next := ver.next.Load()
			if next == nil {
				// A trim pass already cut below the version visible at bound.
				break
			}
			ver = next
		}
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
			freedBytes += mvutil.ApproxVersionBytes(tail.value)
		}
		ver.next.Store(nil)
		v.owner.CompareAndSwap(gcOwner, nil)
	}
	if b := tm.opts.Budget; b != nil && freed > 0 {
		b.Release(int64(freed), freedBytes)
	}
	return freed
}

// trimLocked cuts every variable's chain to at most depth versions, newest
// first; the caller holds gcMu. It ignores the active-snapshot bound, so it
// may free versions an in-flight transaction still needs — those restart with
// stm.ReasonMemoryPressure when their read walk reaches the shortened end
// (the hard-pressure degradation; see DESIGN.md §11).
func (tm *TM) trimLocked(depth int) int {
	if depth < 1 {
		depth = 1
	}
	tm.varsMu.Lock()
	vars := tm.vars
	tm.varsMu.Unlock()

	freed := 0
	var freedBytes int64
	for _, v := range vars {
		if !v.owner.CompareAndSwap(nil, gcOwner) {
			continue
		}
		ver := v.head.Load()
		for i := 1; i < depth; i++ {
			next := ver.next.Load()
			if next == nil {
				break
			}
			ver = next
		}
		for tail := ver.next.Load(); tail != nil; tail = tail.next.Load() {
			freed++
			freedBytes += mvutil.ApproxVersionBytes(tail.value)
		}
		ver.next.Store(nil)
		v.owner.CompareAndSwap(gcOwner, nil)
	}
	if b := tm.opts.Budget; b != nil && freed > 0 {
		b.Release(int64(freed), freedBytes)
	}
	return freed
}

// admitInstall enforces the version budget before a commit may install new
// versions, mirroring internal/core: soft pressure triggers an eager
// non-blocking GC pass, hard pressure runs a blocking pass, then trims every
// chain to MaxVersionDepth, and when even trimming leaves the budget above
// its hard limit the install is refused. It runs before any commit lock is
// taken and reports whether the commit may proceed.
func (tm *TM) admitInstall() bool {
	b := tm.opts.Budget
	switch b.Level() {
	case mvutil.PressureNone:
		return true
	case mvutil.PressureSoft:
		if tm.gcMu.TryLock() {
			tm.gcLocked()
			tm.gcMu.Unlock()
			b.NoteSoftGC()
		}
		return true
	}
	tm.gcMu.Lock()
	if b.Level() == mvutil.PressureHard {
		tm.gcLocked()
		b.NoteSoftGC()
	}
	if b.Level() == mvutil.PressureHard {
		tm.trimLocked(tm.opts.MaxVersionDepth)
		b.NoteTrim()
	}
	level := b.Level()
	tm.gcMu.Unlock()
	if level == mvutil.PressureHard {
		b.NoteReject()
		return false
	}
	return true
}

// VersionCount returns the live version count of v (tests).
func (tm *TM) VersionCount(v stm.Var) int {
	tv := v.(*jvar)
	n := 0
	for ver := tv.head.Load(); ver != nil; ver = ver.next.Load() {
		n++
	}
	return n
}

// EnableHistory implements stm.HistoryRecording.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording.
func (tm *TM) History(v stm.Var) []stm.VersionRecord {
	tv := v.(*jvar)
	tv.histMu.Lock()
	defer tv.histMu.Unlock()
	out := make([]stm.VersionRecord, len(tv.hist))
	copy(out, tv.hist)
	slices.SortFunc(out, func(a, b stm.VersionRecord) int {
		switch {
		case a.Serial < b.Serial:
			return -1
		case a.Serial > b.Serial:
			return 1
		}
		return 0
	})
	return out
}
