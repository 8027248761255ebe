package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/xrand"
)

// The open-loop generator. Each stream draws Poisson arrivals from its own
// seeded generator and issues every operation when it is due, or as soon as
// its worker is free if an earlier operation overran. Latency is measured
// from the due time, so a stall counts against every arrival it delays.
//
// Waiting is the delicate part on a small host. time.Sleep rounds short waits
// up to the runtime's ~1 ms timer granularity; spinning with runtime.Gosched
// starves an in-process server of its core; and a nanosleep system call keeps
// the goroutine's P until the runtime's monitor retakes it, which can leave
// the server with no P for milliseconds. A stream that sleeps therefore arms
// a timerfd and reads it through the runtime's network poller: the goroutine
// parks, its P serves other goroutines, and the wake-up comes 10-40 µs after
// the deadline.

// clientStats is what the generator observes about itself.
type clientStats struct {
	late    hist // due → issue, when the worker was idle and woke late
	wait    hist // due → issue, over all arrivals (0 when the worker was idle)
	sent    atomic.Int64
	backlog atomic.Int64 // arrivals due before the stage ended that never started
}

// sleeper is a stream's timerfd, read through the runtime's poller.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the poller.
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep parks the goroutine for d.
func (s *sleeper) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // struct itimerspec
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }

// waitUntil blocks until due and returns the time it woke.
func waitUntil(due time.Time, s *sleeper) (time.Time, error) {
	for {
		now := time.Now()
		d := due.Sub(now)
		if d <= 0 {
			return now, nil
		}
		if err := s.sleep(d); err != nil {
			return now, err
		}
	}
}

// expGap draws a Poisson inter-arrival gap for rate arrivals per second.
func expGap(r *xrand.Rand, rate float64) time.Duration {
	return time.Duration(-math.Log(1-r.Float64()) / rate * 1e9)
}

// pace runs one arrival stream from start until end, calling op with each
// arrival's due time. Arrivals still unstarted at end are counted as backlog.
func pace(r *xrand.Rand, rate float64, start, end time.Time, s *sleeper, cs *clientStats, op func(due time.Time)) error {
	due := start.Add(expGap(r, rate))
	for due.Before(end) {
		now := time.Now()
		if !now.Before(end) {
			for ; due.Before(end); due = due.Add(expGap(r, rate)) {
				cs.backlog.Add(1)
			}
			return nil
		}
		if now.Before(due) {
			var err error
			if now, err = waitUntil(due, s); err != nil {
				return err
			}
			cs.late.recordDur(now.Sub(due))
			cs.wait.record(0)
		} else {
			cs.wait.recordDur(now.Sub(due))
		}
		cs.sent.Add(1)
		op(due)
		due = due.Add(expGap(r, rate))
	}
	return nil
}

// clientLayers reports the open-loop generator's own lateness and queueing
// over the given streams.
func clientLayers(o *outcome, streams ...*clientStats) {
	var late, wait hist
	for _, cs := range streams {
		late.merge(&cs.late)
		wait.merge(&cs.wait)
	}
	o.layers["client.late_p50_us"] = late.us(.5)
	o.layers["client.late_p99_us"] = late.us(.99)
	o.layers["client.conn_wait_p99_us"] = wait.us(.99)
	o.notef("client: late p50 %.2f us p99 %.2f us (n=%d), wait p99 %.2f us (n=%d)",
		late.us(.5), late.us(.99), late.count(), wait.us(.99), wait.count())
}

// validate marks the run invalid when the generator's own lateness is not
// well below the read latency it measured.
func validate(o *outcome, readP50 float64, streams ...*clientStats) {
	var late hist
	for _, cs := range streams {
		late.merge(&cs.late)
	}
	if l, read := late.us(.5), readP50; l >= read/2 {
		o.failf("invalid run: generator late p50 %.2f us is not below half of read p50 %.2f us", l, read)
	}
}

// ladderStep is one offered rate of the SLO ladder.
type ladderStep struct {
	rate     float64 // offered, operations per second
	updP99US float64
	updates  uint64
	sent     int64
	failed   int64
	backlog  int64
}

// pass reports whether the step met the SLO: update p99 under the limit, no
// failed operation and no growing queue (backlog under 1% of arrivals).
func (s *ladderStep) pass(limitUS float64) bool {
	return s.updP99US < limitUS && s.failed == 0 && s.backlog*100 <= s.sent
}

// sloRate interpolates the highest offered rate that meets the SLO between
// the last passing and the first failing ladder step, linearly in log p99,
// so the result moves smoothly instead of jumping a whole step.
func sloRate(steps []ladderStep, limitUS float64) float64 {
	sort.Slice(steps, func(i, j int) bool { return steps[i].rate < steps[j].rate })
	eff := func(s ladderStep) float64 {
		if s.pass(limitUS) {
			return s.updP99US
		}
		// A step failed on errors or backlog with its p99 still under the
		// limit: treat it as twice over.
		return math.Max(s.updP99US, 2*limitUS)
	}
	for k, s := range steps {
		if s.pass(limitUS) {
			continue
		}
		if k == 0 {
			return s.rate * limitUS / eff(s)
		}
		p := steps[k-1]
		lo, hi := math.Log(math.Max(eff(p), 1e-3)), math.Log(eff(s))
		f := (math.Log(limitUS) - lo) / (hi - lo)
		return p.rate + f*(s.rate-p.rate)
	}
	return steps[len(steps)-1].rate
}
