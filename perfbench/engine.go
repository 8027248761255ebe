package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ds/sortedlist"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// The list-rw workload calls stm.Atomically directly on a fresh twm engine
// from a closed loop of workers. It has no open-loop stage: offered open
// loop, one backoff sleep (the runtime rounds it up to ~1 ms) stalls a
// worker's whole queue, so an engine-level p99 measures timer granularity.

// workerCount is one worker's private counter, padded against false sharing.
type workerCount struct {
	n atomic.Int64
	_ [56]byte
}

// Set-up is timed setupReps times, each over setupBatch builds of engine
// and data, after a forced GC so that no collection lands inside a timed
// build and every build but the first reuses memory already faulted in.
// setup_s is the median per-build time; the workload runs on the last build.
const (
	setupReps  = 61
	setupBatch = 8
)

func engineWorkers() int { return min(2, runtime.NumCPU()) }

// ---- list-rw ----

const (
	listKeys = 512 // key range
	listInit = 256 // initial size
)

var listRWParams = map[string]any{
	"engine": "twm", "workers": "min(2, nproc)", "key_range": listKeys, "initial_size": listInit,
	"mix": "25% insert, 25% remove, 50% read-only contains; uniform keys",
}

type listState struct {
	tm    stm.TM
	l     *sortedlist.List
	delta []workerCount // committed inserts minus committed removes, per worker
}

func buildList(tm stm.TM, r *xrand.Rand) *listState {
	s := &listState{tm: tm, l: sortedlist.New(tm), delta: make([]workerCount, engineWorkers())}
	for _, k := range r.Perm(listKeys)[:listInit] {
		_ = stm.Atomically(tm, false, func(tx stm.Tx) error {
			s.l.Insert(tx, int64(k))
			return nil
		})
	}
	return s
}

// op runs one operation as worker w and reports whether it was an update
// transaction.
func (s *listState) op(w int, r *xrand.Rand) (bool, error) {
	k := int64(r.Intn(listKeys))
	var changed bool
	switch r.Intn(4) {
	case 0:
		err := stm.Atomically(s.tm, false, func(tx stm.Tx) error {
			changed = s.l.Insert(tx, k)
			return nil
		})
		if err == nil && changed {
			s.delta[w].n.Add(1)
		}
		return true, err
	case 1:
		err := stm.Atomically(s.tm, false, func(tx stm.Tx) error {
			changed = s.l.Remove(tx, k)
			return nil
		})
		if err == nil && changed {
			s.delta[w].n.Add(-1)
		}
		return true, err
	}
	return false, stm.Atomically(s.tm, true, func(tx stm.Tx) error {
		s.l.Contains(tx, k)
		return nil
	})
}

func (s *listState) check(o *outcome) {
	var keys []int64
	if err := stm.Atomically(s.tm, true, func(tx stm.Tx) error {
		keys = s.l.Keys(tx)
		return nil
	}); err != nil {
		o.failf("list-rw: reading the final list: %v", err)
		return
	}
	want := int64(listInit)
	for i := range s.delta {
		want += s.delta[i].n.Load()
	}
	for i, k := range keys {
		if k < 0 || k >= listKeys || (i > 0 && keys[i-1] >= k) {
			o.failf("list-rw: final list not sorted, duplicate-free and in range at index %d (%d)", i, k)
			return
		}
	}
	if int64(len(keys)) != want {
		o.failf("list-rw: final length %d, want initial %d + inserts - removes = %d", len(keys), listInit, want)
		return
	}
	o.notef("check list-rw: %d keys sorted and unique; length = %d + committed inserts - removes", len(keys), listInit)
}

// ---- the closed-loop runner ----

// latPair holds one stage's operation latencies by class.
type latPair struct{ update, read hist }

func (l *latPair) record(update bool, d time.Duration) {
	if update {
		l.update.recordDur(d)
	} else {
		l.read.recordDur(d)
	}
}

// tally counts operations attempted and failed across goroutines.
type tally struct{ attempted, failed atomic.Int64 }

func (t *tally) add(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
	}
}

func runList(c runCfg) (*outcome, error) {
	o := newOutcome()
	base := xrand.New(c.seed)
	workers := engineWorkers()

	var (
		st   *listState
		bare *core.TM
		ttm  *timingTM
	)
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		for range setupBatch {
			tm, err := engines.New("twm")
			if err != nil {
				return nil, err
			}
			bare = tm.(*core.TM)
			if c.traced {
				ttm = newTimingTM(bare)
				tm = ttm
			}
			st = buildList(tm, base.Split(0))
		}
		setups[i] = time.Since(t0).Seconds() / setupBatch
	}
	o.e2e["setup_s"] = median(setups)

	rs := make([]*xrand.Rand, workers)
	for w := range rs {
		rs[w] = base.Split(1 + w)
	}
	var t tally
	closedLoop(st, rs, max(200*time.Millisecond, c.seconds/20), &t, nil) // warm-up, unmeasured

	prof := new(stm.Profiler)
	if ttm != nil {
		ttm.reset()
		ttm.SetProfiler(prof)
	}
	heap := watchHeap()
	snap0, rt0 := bare.Stats().Snapshot(), readRuntime()
	ops0 := t.attempted.Load()

	var all latPair
	wins := closedLoop(st, rs, c.seconds, &t, &all)
	var rates, updP50, readP50 []float64
	for _, w := range wins {
		rates = append(rates, w.rate)
		if w.updates >= minWindowOps {
			updP50 = append(updP50, w.updP50)
		}
		if w.reads >= minWindowOps {
			readP50 = append(readP50, w.readP50)
		}
	}
	o.e2e["commits_per_s"] = median(rates)
	o.e2e["update_p50_us"], o.e2e["read_p50_us"] = tenthBest(updP50), tenthBest(readP50)
	o.e2e["update_p99_us"], o.e2e["read_p99_us"] = all.update.us(.99), all.read.us(.99)
	o.notef("closed loop: %d workers, %v, %d windows of %v, update n=%d, read n=%d",
		workers, c.seconds, len(wins), engineWindow, all.update.count(), all.read.count())
	if len(rates) > 0 && len(updP50) > 0 {
		o.notef("per window: commits/s median %.0f, worst %.0f; update p50 tenth-best %.3f, median %.3f, worst %.3f us; whole-run update p50 %.3f us",
			median(rates), slices.Min(rates), tenthBest(updP50), median(updP50), slices.Max(updP50), all.update.us(.5))
	}

	ops := t.attempted.Load() - ops0
	snap1, rt1 := bare.Stats().Snapshot(), readRuntime()
	o.e2e["heap_peak_mb"] = heap.peakMB()
	if ttm != nil {
		ttm.SetProfiler(nil)
	}
	o.attempted, o.failed = t.attempted.Load(), t.failed.Load()

	st.check(o)
	if c.traced {
		stmLayers(o.layers, snap0, snap1)
		coreLayers(o.layers, ttm, prof)
		runtimeLayer(rt0, rt1, ops, o.layers)
	}
	return o, nil
}

// engineWindow is the window list-rw takes commit rates and p50s over; a
// run reports the median window's rate and the tenth-best window's p50s
// (tenthBest). minWindowOps is the fewest operations of a class a window
// needs for its p50 to count.
const (
	engineWindow = 250 * time.Millisecond
	minWindowOps = 1000
)

// loopWindow is one window of a measured closed loop.
type loopWindow struct {
	rate            float64 // committed transactions/s
	updP50, readP50 float64 // us
	updates, reads  uint64
}

// loopWorker is one closed-loop worker's own state. The worker records
// latencies into slot[epoch&1] and publishes in acked the epoch it records
// for, so the sampler reads and clears the other slot only after every
// worker has moved on from it.
type loopWorker struct {
	commits workerCount
	acked   atomic.Int64
	slot    [2]latPair
}

// closedLoop runs every worker back to back for d. With all non-nil it
// returns each engineWindow's commit rate and p50s and adds every latency
// to all. Workers record into their own histograms and count attempts
// locally, so the measurement adds no cache line that both workers write.
func closedLoop(st *listState, rs []*xrand.Rand, d time.Duration, t *tally, all *latPair) []loopWindow {
	measure := all != nil
	var (
		stop  atomic.Bool
		epoch atomic.Int64
		wg    sync.WaitGroup
	)
	ws := make([]loopWorker, len(rs))
	for w := range rs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me, r := &ws[w], rs[w]
			var attempted, failed, cur int64
			for !stop.Load() {
				t0 := time.Now()
				upd, err := st.op(w, r)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
				} else {
					me.commits.n.Add(1)
				}
				if measure {
					if e := epoch.Load(); e != cur {
						cur = e
						me.acked.Store(e)
					}
					me.slot[cur&1].record(upd, d)
				}
			}
			t.attempted.Add(attempted)
			t.failed.Add(failed)
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	if !measure {
		time.Sleep(d)
		return nil
	}

	commits := func() (n int64) {
		for i := range ws {
			n += ws[i].commits.n.Load()
		}
		return n
	}
	var (
		wins []loopWindow
		sum  latPair
	)
	start := time.Now()
	prevT, prevN := start, commits()
	for e := int64(1); time.Since(start) < d; e++ {
		time.Sleep(min(engineWindow, d-time.Since(start)))
		now, n := time.Now(), commits()
		epoch.Store(e)
		for i := range ws {
			for ws[i].acked.Load() != e {
				time.Sleep(20 * time.Microsecond)
			}
		}
		sum.update.reset()
		sum.read.reset()
		for i := range ws {
			old := &ws[i].slot[(e-1)&1]
			sum.update.merge(&old.update)
			sum.read.merge(&old.read)
			old.update.reset()
			old.read.reset()
		}
		if dt := now.Sub(prevT); dt >= engineWindow/2 {
			wins = append(wins, loopWindow{
				rate:   float64(n-prevN) / dt.Seconds(),
				updP50: sum.update.us(.5), readP50: sum.read.us(.5),
				updates: sum.update.count(), reads: sum.read.count(),
			})
			all.update.merge(&sum.update)
			all.read.merge(&sum.read)
		}
		prevT, prevN = now, n
	}
	return wins
}

// tenthBest returns the 10th percentile of per-window latencies. A window's
// p50 doubles when a collection of list-rw's growing heap or a busy phase
// of the shared host falls in it, and neighbouring windows differ by as
// much; the median window follows how many such windows a run happened to
// get, while the tenth-best window reports the run's least disturbed ones.
func tenthBest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/10]
}

// windowRates samples each counter every 250 ms for d and returns, per
// counter, the rate of each window. Callers report the median window, which
// a passing disturbance moves less than a whole-run mean.
func windowRates(d time.Duration, counts ...func() int64) [][]float64 {
	const window = 250 * time.Millisecond
	rates := make([][]float64, len(counts))
	prevN := make([]int64, len(counts))
	for i, c := range counts {
		prevN[i] = c()
	}
	start := time.Now()
	prevT := start
	for time.Since(start) < d {
		time.Sleep(min(window, d-time.Since(start)))
		now := time.Now()
		for i, c := range counts {
			n := c()
			if now.Sub(prevT) >= window/2 {
				rates[i] = append(rates[i], float64(n-prevN[i])/now.Sub(prevT).Seconds())
			}
			prevN[i] = n
		}
		prevT = now
	}
	return rates
}

func stmLayers(out map[string]float64, a, b stm.Snapshot) {
	commits := float64(b.Commits - a.Commits)
	if commits == 0 {
		return
	}
	out["stm.attempts_per_commit"] = float64(b.Starts-a.Starts) / commits
	for _, r := range abortReasons {
		out["stm.aborts_per_commit."+r] = float64(b.ByReason[r]-a.ByReason[r]) / commits
	}
	out["core.stamp_cas_retries_per_commit"] = float64(b.StampCASRetries-a.StampCASRetries) / commits
}

func coreLayers(out map[string]float64, t *timingTM, p *stm.Profiler) {
	out["core.begin_ns"] = t.begin.mean()
	out["core.commit_ok_ns"] = t.commitOK.mean()
	out["core.commit_ok_p99_ns"] = t.commitOK.quantile(.99)
	out["core.commit_fail_ns"] = t.commitFail.mean()
	if calls := t.commitOK.count() + t.commitFail.count(); calls > 0 {
		out["core.commit_fail_frac"] = float64(t.commitFail.count()) / float64(calls)
	}
	if n := float64(t.attempts.Load()); n > 0 {
		out["core.reads_per_attempt"] = float64(t.reads.Load()) / n
		out["core.writes_per_attempt"] = float64(t.writes.Load()) / n
	}
	b := p.Snapshot()
	out["core.phase_read_us"] = b.ReadUS
	out["core.phase_readset_val_us"] = b.ReadSetValUS
	out["core.phase_writeset_val_us"] = b.WriteSetValUS
	out["core.phase_commit_us"] = b.CommitUS
	if n := t.updCommits.Load(); n > 0 {
		out["core.warped_frac"] = float64(t.warped.Load()) / float64(n)
	}
	out["core.warp_distance_p99"] = t.warpDist.quantile(.99)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
