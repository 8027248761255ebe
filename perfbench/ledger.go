package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// The ledger workload drives an in-process twm-server whose engine logs to a
// WAL, over loopback HTTP. Connection 0 carries transfers and connection 1
// reads, so a read never queues behind an update waiting on the log.
//
// The log is fsynced every 50 ms in the background (the "interval" policy):
// the WAL append stays on the commit path, the fsync leaves it. With
// per-commit fsync, whose p99 moves between 0.2 and 3.5 ms from one second to
// the next on a 2-CPU virtual machine, update latencies spread far beyond any
// bound the benchmark may set.

const (
	ledgerAccounts = 1024
	ledgerZipf     = 1.1
	ledgerInitial  = int64(1) << 30 // deep pockets: no transfer is refused
	ledgerFsync    = "interval"
	ledgerLimitUS  = 100000 // SLO limit on update p99
	ledgerSetups   = 9
)

// ledgerNominal is the open-loop nominal stage's offered rate, total
// requests per second: about half of the workload's 50/50 closed-loop
// capacity (~20.6k req/s on a 2-CPU Xeon virtual machine).
const ledgerNominal = 10000

// ledgerLadder is the SLO ladder, total requests per second, ascending.
var ledgerLadder = []float64{8000, 12000, 16000, 20000}

// latWindow is the window latency percentiles are taken over; a reported
// latency is the median of the per-window percentiles, so a burst of slow
// fsyncs or a descheduled vCPU moves one window, not the whole run.
const latWindow = 500 * time.Millisecond

var ledgerParams = map[string]any{
	"engine": "twm", "server": "in-process twm-server on loopback", "accounts": ledgerAccounts,
	"zipf_s": ledgerZipf, "fsync": ledgerFsync, "periodic_snapshots": "off",
	"mix":         "50% POST /v1/transfer (amount 1), 50% GET /v1/accounts/{id}",
	"connections": "2: transfers on one, reads on the other",
	"stages":      "warm-up 0.5 s; closed loop per class 60%; open loop (Poisson) at nominal_rps 25%; open-loop SLO ladder 15%",
	"nominal_rps": ledgerNominal, "latency_window": latWindow.String(),
	"ladder_rps": ledgerLadder, "slo_update_p99_us": ledgerLimitUS,
}

// ledgerSys is one built server. The untraced build is what twm-server runs
// with -wal: server.New with WALDir. The traced build assembles the same
// engine by hand, because Config.TM and Config.WALDir are exclusive:
// wal.Open → timing logger → engines.NewDurable("twm") → timing TM →
// server.New(Config{TM}). Steady-state commits take the same path in both;
// only boot differs (the hand-built ledger writes no account meta records).
type ledgerSys struct {
	srv  *server.Server
	w    *wal.Writer // traced build only
	tlog *timingLog
	ttm  *timingTM
}

func buildLedger(dir string, traced bool) (*ledgerSys, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	if !traced {
		s, err := server.New(server.Config{
			Engine: "twm", Accounts: ledgerAccounts, InitialBalance: ledgerInitial,
			WALDir: dir, FsyncPolicy: ledgerFsync, SnapshotEvery: -1, Logger: quiet,
		})
		return &ledgerSys{srv: s}, err
	}
	policy, err := wal.ParsePolicy(ledgerFsync)
	if err != nil {
		return nil, err
	}
	w, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return nil, err
	}
	sys := &ledgerSys{w: w, tlog: &timingLog{w: w}}
	tm, err := engines.NewDurable("twm", sys.tlog)
	if err == nil {
		sys.ttm = newTimingTM(tm.(*core.TM))
		sys.srv, err = server.New(server.Config{TM: sys.ttm, Accounts: ledgerAccounts, InitialBalance: ledgerInitial, Logger: quiet})
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return sys, nil
}

func (l *ledgerSys) close() {
	l.srv.Close()
	if l.w != nil {
		l.w.Close()
	}
}

// serverTiming times Server.Handler().ServeHTTP. While on, it records
// handler time by class; it always leaves each connection's last handler
// time in last, which the client joins to its own span of that request
// (each connection has one request in flight at a time).
type serverTiming struct {
	inner        http.Handler
	on           atomic.Bool
	update, read hist
	last         [2]atomic.Int64
}

func (s *serverTiming) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	if s.on.Load() {
		if r.Method == http.MethodPost {
			s.update.recordDur(d)
		} else {
			s.read.recordDur(d)
		}
	}
	if c, err := strconv.Atoi(r.Header.Get("X-Bench-Conn")); err == nil && c >= 0 && c < len(s.last) {
		s.last[c].Store(int64(d))
	}
}

// ledgerClient issues requests over two keep-alive connections.
type ledgerClient struct {
	base  string
	conns [2]*http.Client
	z     *xrand.Zipf
	st    *serverTiming // traced only
}

func newLedgerClient(base string, st *serverTiming) *ledgerClient {
	c := &ledgerClient{base: base, z: xrand.NewZipf(ledgerAccounts, ledgerZipf), st: st}
	for i := range c.conns {
		c.conns[i] = &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	return c
}

func (c *ledgerClient) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// get fetches path on conn and decodes a JSON body into out (if non-nil).
func (c *ledgerClient) get(conn int, path string, out any) error {
	resp, err := c.conns[conn].Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// op issues one transfer or read on conn with Zipf-drawn accounts. It returns
// the request's round trip as the client saw it and, traced, the handler
// time of the same request.
func (c *ledgerClient) op(conn int, update bool, r *xrand.Rand) (rtt, handler time.Duration, err error) {
	var req *http.Request
	a := c.z.Next(r)
	if update {
		b := c.z.Next(r)
		for b == a {
			b = c.z.Next(r)
		}
		body := `{"from":"` + strconv.Itoa(a) + `","to":"` + strconv.Itoa(b) + `","amount":1}`
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/transfer", strings.NewReader(body))
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+"/v1/accounts/"+strconv.Itoa(a), nil)
	}
	if err != nil {
		return 0, 0, err
	}
	if c.st != nil {
		req.Header.Set("X-Bench-Conn", strconv.Itoa(conn))
	}
	t0 := time.Now()
	resp, err := c.conns[conn].Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rtt = time.Since(t0)
	if err == nil && resp.StatusCode/100 != 2 {
		err = errors.New(resp.Status)
	}
	if c.st != nil {
		handler = time.Duration(c.st.last[conn].Load())
	}
	return rtt, handler, err
}

func runLedger(c runCfg) (*outcome, error) {
	o := newOutcome()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(".bench_build", "ledger-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var sys *ledgerSys
	var dir string
	setups := make([]float64, ledgerSetups)
	for i := range setups {
		if sys != nil {
			sys.close()
		}
		dir = filepath.Join(base, strconv.Itoa(i))
		runtime.GC()
		t0 := time.Now()
		if sys, err = buildLedger(dir, c.traced); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	o.e2e["setup_s"] = median(setups)
	defer sys.close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st, stop, serveErr := serveLedger(sys.srv, ln, c.traced)
	client := newLedgerClient("http://"+ln.Addr().String(), st)
	o2, err := driveLedger(c, sys, client, st, dir)
	client.close()
	if stopErr := stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("server drain: %w", stopErr)
	}
	if serr := <-serveErr; err == nil {
		err = serr
	}
	if o2 != nil {
		o2.e2e["setup_s"] = o.e2e["setup_s"]
	}
	return o2, err
}

// serveLedger starts serving on ln: untraced through Server.Serve, traced
// through an http.Server around the timed handler (returned as st). stop
// starts the drain; done yields the serving goroutine's result.
func serveLedger(s *server.Server, ln net.Listener, traced bool) (st *serverTiming, stop func() error, done chan error) {
	done = make(chan error, 1)
	if !traced {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- s.Serve(ctx, ln, 5*time.Second) }()
		return nil, func() error { cancel(); return nil }, done
	}
	st = &serverTiming{inner: s.Handler()}
	hs := &http.Server{Handler: st, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			done <- err
			return
		}
		done <- nil
	}()
	return st, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}, done
}

func driveLedger(c runCfg, sys *ledgerSys, cl *ledgerClient, st *serverTiming, dir string) (*outcome, error) {
	o := newOutcome()
	base := xrand.New(c.seed)
	opR := [2]*xrand.Rand{base.Split(1), base.Split(2)}
	gapR := [2]*xrand.Rand{base.Split(101), base.Split(102)}
	var t tally

	ledgerClosed(cl, opR, 500*time.Millisecond, &t, nil) // warm-up, unmeasured

	prof := new(stm.Profiler)
	if sys.ttm != nil {
		sys.ttm.reset()
		sys.ttm.SetProfiler(prof)
	}
	heap := watchHeap()
	tm := sys.srv.TM()
	snap0, rt0 := tm.Stats().Snapshot(), readRuntime()
	ops0 := t.attempted.Load()
	walBytes0 := dirBytes(dir)

	// End-to-end stage: each connection back to back on its own class. A
	// closed loop keeps the CPUs busy; offered open loop at a fixed rate, a
	// request's latency also carries the idle vCPUs' wake-up time, which
	// spread read p50 by 10-35% run to run.
	closedDur := c.seconds * 60 / 100
	win := make([]latPair, closedDur/latWindow+1)
	upd, rd := ledgerClosed(cl, opR, closedDur, &t, win)
	u, r := median(upd), median(rd)
	o.e2e["commits_per_s"] = u + r
	lat := windowMedians(win)
	o.e2e["update_p50_us"], o.e2e["update_p99_us"], o.e2e["read_p50_us"], o.e2e["read_p99_us"] = lat[0], lat[1], lat[2], lat[3]
	o.notef("closed loop per class: %v, %d windows, median committed transfers/s %.0f, reads/s %.0f; 50/50 capacity %.0f req/s",
		closedDur, len(upd), u, r, 2*min(u, r))

	// Open loop at the nominal rate: the per-layer client, server and wire
	// spans, and the generator's validity.
	nomDur := c.seconds * 25 / 100
	if st != nil {
		st.on.Store(true)
	}
	var wire hist
	nom, err := ledgerOpen(cl, opR, gapR, ledgerNominal, nomDur, &t, &wire)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.on.Store(false)
	}
	o.notef("open loop: %d req/s for %v, update p50 %.1f us p99 %.1f us (n=%d), read p50 %.1f us p99 %.1f us (n=%d), failed %d, backlog %d",
		ledgerNominal, nomDur, nom.lat.update.us(.5), nom.lat.update.us(.99), nom.lat.update.count(),
		nom.lat.read.us(.5), nom.lat.read.us(.99), nom.lat.read.count(), nom.failed, nom.backlog())

	stepDur := (c.seconds - closedDur - nomDur) / time.Duration(len(ledgerLadder))
	steps := make([]ladderStep, len(ledgerLadder))
	for i, rate := range ledgerLadder {
		s, err := ledgerOpen(cl, opR, gapR, rate, stepDur, &t, nil)
		if err != nil {
			return nil, err
		}
		steps[i] = ladderStep{rate: rate, updP99US: s.lat.update.us(.99), updates: s.lat.update.count(),
			sent: s.sent(), failed: s.failed, backlog: s.backlog()}
		o.notef("ladder %.0f req/s: update p99 %.1f us (n=%d), read p99 %.1f us, failed %d, backlog %d of %d, pass=%v",
			rate, steps[i].updP99US, steps[i].updates, s.lat.read.us(.99), s.failed, steps[i].backlog, steps[i].sent, steps[i].pass(ledgerLimitUS))
	}
	o.layers["client.slo_rate_rps"] = sloRate(steps, ledgerLimitUS)
	o.notef("slo rate: %.0f req/s", o.layers["client.slo_rate_rps"])

	ops := t.attempted.Load() - ops0
	snap1, rt1 := tm.Stats().Snapshot(), readRuntime()
	walBytes1 := dirBytes(dir)
	o.e2e["heap_peak_mb"] = heap.peakMB()
	if sys.ttm != nil {
		sys.ttm.SetProfiler(nil)
	}
	o.attempted, o.failed = t.attempted.Load(), t.failed.Load()

	clientLayers(o, &nom.cs[0], &nom.cs[1])
	validate(o, nom.lat.read.us(.5), &nom.cs[0], &nom.cs[1])
	checkLedger(o, cl, dir)

	if c.traced {
		o.layers["server.update_p50_us"], o.layers["server.update_p99_us"] = st.update.us(.5), st.update.us(.99)
		o.layers["server.read_p50_us"], o.layers["server.read_p99_us"] = st.read.us(.5), st.read.us(.99)
		o.layers["server.wire_p50_us"] = wire.us(.5)
		stmLayers(o.layers, snap0, snap1)
		coreLayers(o.layers, sys.ttm, prof)
		l := sys.tlog
		o.layers["wal.append_p50_us"], o.layers["wal.append_p99_us"] = l.append.us(.5), l.append.us(.99)
		o.layers["wal.durable_p50_us"], o.layers["wal.durable_p99_us"] = l.durable.us(.5), l.durable.us(.99)
		if upd := (snap1.Commits - snap1.ROCommits) - (snap0.Commits - snap0.ROCommits); upd > 0 {
			o.layers["wal.bytes_per_commit"] = float64(walBytes1-walBytes0) / float64(upd)
		}
		runtimeLayer(rt0, rt1, ops, o.layers)
	}
	return o, nil
}

// ledgerClosed runs each connection back to back on its own class for d:
// transfers on connection 0, reads on connection 1. It returns the committed
// rate of each class per 250 ms window.
// With win non-nil it records each request's latency in the latWindow it
// started in.
func ledgerClosed(cl *ledgerClient, rs [2]*xrand.Rand, d time.Duration, t *tally, win []latPair) (updates, reads []float64) {
	var stop atomic.Bool
	start := time.Now()
	var ok [2]workerCount
	var wg sync.WaitGroup
	for conn := range rs {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			r := rs[conn]
			for !stop.Load() {
				t0 := time.Now()
				_, _, err := cl.op(conn, conn == 0, r)
				if i := int(t0.Sub(start) / latWindow); win != nil && i < len(win) {
					win[i].record(conn == 0, time.Since(t0))
				}
				t.add(err)
				if err == nil {
					ok[conn].n.Add(1)
				}
			}
		}(conn)
	}
	rates := windowRates(d, ok[0].n.Load, ok[1].n.Load)
	stop.Store(true)
	wg.Wait()
	return rates[0], rates[1]
}

// openStage is one open-loop stage's observations.
type openStage struct {
	lat    latPair
	cs     [2]clientStats // per connection
	failed int64
}

func (s *openStage) sent() int64    { return s.cs[0].sent.Load() + s.cs[1].sent.Load() }
func (s *openStage) backlog() int64 { return s.cs[0].backlog.Load() + s.cs[1].backlog.Load() }

// ledgerOpen offers rate requests per second for d: transfers on connection
// 0 and reads on connection 1, each a Poisson stream at rate/2. With wire
// non-nil (traced), it records each request's round trip minus its handler
// time.
func ledgerOpen(cl *ledgerClient, opR, gapR [2]*xrand.Rand, rate float64, d time.Duration, t *tally, wire *hist) (*openStage, error) {
	s := &openStage{}
	var failed atomic.Int64
	var errs [2]error
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	for conn := range opR {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			sl, err := newSleeper()
			if err != nil {
				errs[conn] = err
				return
			}
			defer sl.close()
			update := conn == 0
			errs[conn] = pace(gapR[conn], rate/2, start, end, sl, &s.cs[conn], func(due time.Time) {
				rtt, handler, err := cl.op(conn, update, opR[conn])
				s.lat.record(update, time.Since(due))
				t.add(err)
				if err != nil {
					failed.Add(1)
				} else if wire != nil {
					wire.recordDur(rtt - handler)
				}
			})
		}(conn)
	}
	wg.Wait()
	s.failed = failed.Load()
	return s, errors.Join(errs[:]...)
}

// checkLedger audits money conservation over HTTP, then recovers the WAL
// directory and compares every recovered balance with the live one: every
// acknowledged transfer must have reached disk.
func checkLedger(o *outcome, cl *ledgerClient, dir string) {
	var audit struct {
		Accounts     int   `json:"accounts"`
		TotalBalance int64 `json:"totalBalance"`
		TotalHeld    int64 `json:"totalHeld"`
	}
	if err := cl.get(1, "/v1/audit", &audit); err != nil {
		o.failf("ledger: audit: %v", err)
		return
	}
	if want := ledgerAccounts * ledgerInitial; audit.Accounts != ledgerAccounts || audit.TotalBalance != want || audit.TotalHeld != 0 {
		o.failf("ledger: audit %+v, want %d accounts holding %d", audit, ledgerAccounts, want)
		return
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		o.failf("ledger: recover: %v", err)
		return
	}
	for k := 0; k < ledgerAccounts; k++ {
		var live server.BalanceView
		if err := cl.get(1, "/v1/accounts/"+strconv.Itoa(k), &live); err != nil {
			o.failf("ledger: read account %d: %v", k, err)
			return
		}
		// The ledger allocates each account's balance and held variables in
		// creation order, so account k's balance is variable 2k+1.
		got, ok := rec.Value(uint64(2*k+1), ledgerInitial).(int64)
		if !ok || got != live.Balance {
			o.failf("ledger: account %d: recovered balance %v, live %d", k, rec.Value(uint64(2*k+1), ledgerInitial), live.Balance)
			return
		}
	}
	o.notef("check ledger: audit conserves %d; recovery of %d records reproduces all %d live balances",
		audit.TotalBalance, rec.Records, ledgerAccounts)
}

// windowMedians returns the median over windows of update p50, update p99,
// read p50 and read p99, skipping windows too sparse for a p99 (the ragged
// last one).
func windowMedians(win []latPair) [4]float64 {
	var per [4][]float64
	for i := range win {
		w := &win[i]
		if w.update.count() < 100 || w.read.count() < 100 {
			continue
		}
		for j, v := range []float64{w.update.us(.5), w.update.us(.99), w.read.us(.5), w.read.us(.99)} {
			per[j] = append(per[j], v)
		}
	}
	return [4]float64{median(per[0]), median(per[1]), median(per[2]), median(per[3])}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && !fi.IsDir() {
			n += fi.Size()
		}
	}
	return n
}
