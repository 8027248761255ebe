package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/xrand"
)

func newTwm(t *testing.T) *core.TM {
	t.Helper()
	tm, err := engines.New("twm")
	if err != nil {
		t.Fatal(err)
	}
	return tm.(*core.TM)
}

// The timing wrapper must keep the engine's descriptor pooling: a wrapper
// that hid stm.TxRecycler would make every attempt allocate a fresh
// descriptor and the traced run would measure a different engine.
func TestTimingTMReadOnlyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime defeats sync.Pool")
	}
	measure := func(tm stm.TM) float64 {
		v := tm.NewVar(1)
		fn := func(tx stm.Tx) error { tx.Read(v); return nil }
		return testing.AllocsPerRun(2000, func() { _ = stm.Atomically(tm, true, fn) })
	}
	bare := measure(newTwm(t))
	wrapped := measure(newTimingTM(newTwm(t)))
	if wrapped > bare {
		t.Fatalf("read-only Atomically allocates %.1f/op through the timing TM, %.1f/op bare", wrapped, bare)
	}
}

func TestTimingTMForwardsRecyclerAndAbortReason(t *testing.T) {
	tm := newTimingTM(newTwm(t))
	if _, ok := stm.TM(tm).(stm.TxRecycler); !ok {
		t.Fatal("timing TM does not implement stm.TxRecycler")
	}
	v := tm.NewVar(0)
	loser := tm.Begin(false)
	loser.Write(v, loser.Read(v).(int)+1)
	winner := tm.Begin(false)
	winner.Write(v, winner.Read(v).(int)+1)
	if !tm.Commit(winner) {
		t.Fatal("first committer failed")
	}
	if tm.Commit(loser) {
		t.Fatal("lost update committed")
	}
	ar, ok := loser.(stm.AbortReasoner)
	if !ok {
		t.Fatal("timing Tx does not implement stm.AbortReasoner")
	}
	if r := ar.LastAbortReason(); r == stm.ReasonNone {
		t.Fatal("abort reason not forwarded")
	}
	tm.Recycle(winner)
	tm.Recycle(loser)
	if tm.commitOK.count() != 1 || tm.commitFail.count() != 1 || tm.attempts.Load() != 2 {
		t.Fatalf("commit ok %d, fail %d, attempts %d; want 1, 1, 2", tm.commitOK.count(), tm.commitFail.count(), tm.attempts.Load())
	}
}

// The workers swap histograms at each window boundary while the sampler
// reads the slot they left: every latency recorded in a whole window must
// reach exactly one window and the run total, and the list must stay valid.
func TestClosedLoopWindows(t *testing.T) {
	st := buildList(newTwm(t), xrand.New(1))
	rs := []*xrand.Rand{xrand.New(2), xrand.New(3)}
	var (
		tl  tally
		all latPair
	)
	wins := closedLoop(st, rs, 5*engineWindow, &tl, &all)
	if len(wins) < 4 {
		t.Fatalf("%d windows in 5 window lengths", len(wins))
	}
	var n uint64
	for i, w := range wins {
		if w.rate <= 0 || w.updates == 0 || w.reads == 0 || w.updP50 <= 0 || w.readP50 <= 0 {
			t.Errorf("window %d empty: %+v", i, w)
		}
		n += w.updates + w.reads
	}
	if total := all.update.count() + all.read.count(); n != total || int64(n) > tl.attempted.Load() {
		t.Fatalf("windows hold %d latencies, the run total %d, attempts %d", n, total, tl.attempted.Load())
	}
	o := newOutcome()
	st.check(o)
	if len(o.failures) > 0 {
		t.Fatal(o.failures)
	}
}

// Quantiles interpolate inside a bucket, so on evenly spread values they
// are exact to well within a bucket's width (3% up here). The top bucket,
// which 100000 fills only in part, is left out.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{.25, .5, .9} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.999 || got > want*1.001 {
			t.Errorf("q%.2f = %.1f, want %.0f ± 0.1%%", q, got, want)
		}
	}
}

func TestSLORateInterpolates(t *testing.T) {
	steps := []ladderStep{
		{rate: 1000, updP99US: 1000, sent: 100},
		{rate: 2000, updP99US: 10000, sent: 100},
		{rate: 3000, updP99US: 1e6, sent: 100},
	}
	// The 100000 us limit is crossed halfway (in log p99) from 2000 to 3000.
	if got := sloRate(steps, 100000); got < 2499 || got > 2501 {
		t.Fatalf("slo rate %.1f, want 2500", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []m, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics())
}
