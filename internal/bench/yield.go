package bench

import (
	"runtime"
	"sync"

	"repro/internal/stm"
)

// WithYield wraps a TM so that every transaction yields the processor after
// every `every`-th barrier (read or write). On the paper's 64-core machine,
// transactions from different threads genuinely overlap in time; on a
// single-core container they would otherwise run mostly back-to-back and
// almost never conflict. Injected yields put scheduler preemption points
// inside transactions, restoring the overlap that makes the paper's
// contention patterns (stale reads, anti-dependencies, triads) reachable.
// The cost is identical for every engine, so comparisons stay fair.
//
// every <= 0 returns tm unchanged.
func WithYield(tm stm.TM, every int) stm.TM {
	if every <= 0 {
		return tm
	}
	y := &yieldTM{inner: tm, every: every}
	y.rec, _ = tm.(stm.TxRecycler)
	y.pool.New = func() any { return &yieldTx{} }
	return y
}

type yieldTM struct {
	inner stm.TM
	rec   stm.TxRecycler // inner's recycler; nil when unsupported
	every int
	pool  sync.Pool // of *yieldTx wrappers
}

func (y *yieldTM) Name() string { return y.inner.Name() }

func (y *yieldTM) NewVar(initial stm.Value) stm.Var { return y.inner.NewVar(initial) }

func (y *yieldTM) Begin(readOnly bool) stm.Tx {
	t := y.pool.Get().(*yieldTx)
	t.inner, t.every, t.n = y.inner.Begin(readOnly), y.every, 0
	return t
}

// Recycle implements stm.TxRecycler: the wrapper returns to its own pool and
// the wrapped transaction is forwarded to the inner engine's recycler.
func (y *yieldTM) Recycle(tx stm.Tx) {
	t, ok := tx.(*yieldTx)
	if !ok {
		return
	}
	inner := t.inner
	t.inner = nil
	y.pool.Put(t)
	if y.rec != nil {
		y.rec.Recycle(inner)
	}
}

func (y *yieldTM) Commit(tx stm.Tx) bool { return y.inner.Commit(tx.(*yieldTx).inner) }

func (y *yieldTM) Abort(tx stm.Tx) { y.inner.Abort(tx.(*yieldTx).inner) }

func (y *yieldTM) Stats() *stm.Stats { return y.inner.Stats() }

// SetProfiler implements stm.Profilable when the inner engine does.
func (y *yieldTM) SetProfiler(p *stm.Profiler) {
	if prof, ok := y.inner.(stm.Profilable); ok {
		prof.SetProfiler(p)
	}
}

// EnableHistory implements stm.HistoryRecording when the inner engine does.
func (y *yieldTM) EnableHistory() {
	if h, ok := y.inner.(stm.HistoryRecording); ok {
		h.EnableHistory()
	}
}

// History implements stm.HistoryRecording when the inner engine does.
func (y *yieldTM) History(v stm.Var) []stm.VersionRecord {
	if h, ok := y.inner.(stm.HistoryRecording); ok {
		return h.History(v)
	}
	return nil
}

type yieldTx struct {
	inner stm.Tx
	every int
	n     int
}

func (t *yieldTx) maybeYield() {
	t.n++
	if t.n >= t.every {
		t.n = 0
		runtime.Gosched()
	}
}

func (t *yieldTx) Read(v stm.Var) stm.Value {
	t.maybeYield()
	return t.inner.Read(v)
}

func (t *yieldTx) Write(v stm.Var, val stm.Value) {
	t.maybeYield()
	t.inner.Write(v, val)
}

func (t *yieldTx) ReadOnly() bool { return t.inner.ReadOnly() }

// LastAbortReason implements stm.AbortReasoner when the inner transaction
// does, so the yield wrapper does not hide commit-failure reasons from the
// retry loop.
func (t *yieldTx) LastAbortReason() stm.AbortReason {
	if ar, ok := t.inner.(stm.AbortReasoner); ok {
		return ar.LastAbortReason()
	}
	return stm.ReasonNone
}

// Valid implements stm.Validator when the inner transaction does, so the
// yield wrapper does not hide a doomed attempt's user error from the retry
// loop.
func (t *yieldTx) Valid() bool {
	if v, ok := t.inner.(stm.Validator); ok {
		return v.Valid()
	}
	return true
}
