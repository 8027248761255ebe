package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/wal"
)

// timingTM is the traced run's view of the core layer: it times the calls
// the retry loop makes into a *core.TM and counts each attempt's reads and
// writes. Embedding forwards everything else (NewVar, Stats, Clock,
// ActiveSet, CommitLogger, SetProfiler), so the server's watchdog sees the
// same engine it sees untraced. It forwards stm.TxRecycler and its Tx
// forwards stm.AbortReasoner: a wrapper that hid either would silently turn
// off descriptor pooling or abort-reason reporting and distort what it
// measures.
type timingTM struct {
	*core.TM
	txs sync.Pool

	begin      hist
	commitOK   hist
	commitFail hist
	warpDist   hist // natOrder − twOrder of warped commits

	attempts   atomic.Int64
	reads      atomic.Int64
	writes     atomic.Int64
	updCommits atomic.Int64 // commits that drew a write version
	warped     atomic.Int64
}

type timingTx struct {
	tm     *timingTM
	inner  stm.Tx
	reads  int64
	writes int64
}

func newTimingTM(inner *core.TM) *timingTM {
	t := &timingTM{TM: inner}
	t.txs.New = func() any { return &timingTx{tm: t} }
	return t
}

func (t *timingTM) Begin(readOnly bool) stm.Tx {
	t0 := time.Now()
	in := t.TM.Begin(readOnly)
	t.begin.recordDur(time.Since(t0))
	x := t.txs.Get().(*timingTx)
	x.inner, x.reads, x.writes = in, 0, 0
	return x
}

func (t *timingTM) Commit(tx stm.Tx) bool {
	x := tx.(*timingTx)
	t0 := time.Now()
	ok := t.TM.Commit(x.inner)
	d := time.Since(t0)
	if ok {
		t.commitOK.recordDur(d)
		// CommitOrders is valid between Commit and Recycle. An update
		// transaction that wrote nothing commits read-only and draws no
		// order (nat = 0); it cannot warp, so it is not counted.
		if nat, tw := t.TM.CommitOrders(x.inner); nat != 0 {
			t.updCommits.Add(1)
			if tw != nat {
				t.warped.Add(1)
				t.warpDist.record(nat - tw)
			}
		}
	} else {
		t.commitFail.recordDur(d)
	}
	t.endAttempt(x)
	return ok
}

func (t *timingTM) Abort(tx stm.Tx) {
	x := tx.(*timingTx)
	t.TM.Abort(x.inner)
	t.endAttempt(x)
}

func (t *timingTM) endAttempt(x *timingTx) {
	t.attempts.Add(1)
	t.reads.Add(x.reads)
	t.writes.Add(x.writes)
}

// Recycle implements stm.TxRecycler: the engine descriptor goes back to the
// engine's pool and the wrapper back to this one.
func (t *timingTM) Recycle(tx stm.Tx) {
	x := tx.(*timingTx)
	t.TM.Recycle(x.inner)
	x.inner = nil
	t.txs.Put(x)
}

func (x *timingTx) Read(v stm.Var) stm.Value {
	x.reads++
	return x.inner.Read(v)
}

func (x *timingTx) Write(v stm.Var, val stm.Value) {
	x.writes++
	x.inner.Write(v, val)
}

func (x *timingTx) ReadOnly() bool { return x.inner.ReadOnly() }

// LastAbortReason implements stm.AbortReasoner.
func (x *timingTx) LastAbortReason() stm.AbortReason {
	if ar, ok := x.inner.(stm.AbortReasoner); ok {
		return ar.LastAbortReason()
	}
	return stm.ReasonNone
}

// timingLog is the traced run's view of the WAL layer: a stm.CommitLogger
// that times Append (the write under the committer's locks) and Durable (the
// fsync wait) of a *wal.Writer.
type timingLog struct {
	w       *wal.Writer
	append  hist
	durable hist
}

func (l *timingLog) Append(recs []stm.CommitRecord) (stm.LSN, error) {
	t0 := time.Now()
	lsn, err := l.w.Append(recs)
	l.append.recordDur(time.Since(t0))
	return lsn, err
}

func (l *timingLog) Durable(lsn stm.LSN) error {
	t0 := time.Now()
	err := l.w.Durable(lsn)
	l.durable.recordDur(time.Since(t0))
	return err
}

// WALCounters forwards the health watchdog's WAL probe, so traced and
// untraced servers sample the log alike.
func (l *timingLog) WALCounters() (appended, synced uint64, pending int, err error) {
	return l.w.WALCounters()
}

func (t *timingTM) reset() {
	for _, h := range []*hist{&t.begin, &t.commitOK, &t.commitFail, &t.warpDist} {
		h.reset()
	}
	for _, c := range []*atomic.Int64{&t.attempts, &t.reads, &t.writes, &t.updCommits, &t.warped} {
		c.Store(0)
	}
}
