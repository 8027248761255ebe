// Package wal is the durability subsystem: an append-only, checksummed,
// segment-rotating write-ahead log of committed write sets in time-warp
// commit order, periodic variable snapshots, and crash recovery by replay
// (DESIGN.md §16).
//
// The Writer implements stm.CommitLogger. Engines call Append with write
// locks held, before any version becomes visible, and Durable after install;
// because no write is visible before its record is appended and an fsync
// covers every prior append, a crash loses only a dependency-closed suffix
// of the history — the recovered state is always a serializable prefix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

// Policy selects when appended records are fsynced.
type Policy uint8

const (
	// SyncPerCommit fsyncs before any commit acknowledges: Durable blocks
	// until an fsync covering its LSN has completed. Concurrent waiters are
	// group-combined — one fsync serves every record appended before it
	// started — so the cost is one disk flush per combining window, not per
	// transaction. Zero acknowledged commits are lost on a crash.
	SyncPerCommit Policy = iota
	// SyncPerBatch is classic group commit: Durable blocks, but the fsync
	// fires only once BatchAppends records are pending or BatchWait has
	// elapsed since the first pending append. Acknowledged commits are still
	// never lost; the latency floor is the batch horizon.
	SyncPerBatch
	// SyncInterval trades the tail of durability for latency: Durable returns
	// immediately and a background ticker fsyncs every Interval. A crash
	// loses at most the last interval of acknowledged commits.
	SyncInterval
)

// String returns the config spelling of the policy.
func (p Policy) String() string {
	switch p {
	case SyncPerBatch:
		return "per-batch"
	case SyncInterval:
		return "interval"
	}
	return "per-commit"
}

// ParsePolicy parses the config spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "per-commit", "":
		return SyncPerCommit, nil
	case "per-batch":
		return SyncPerBatch, nil
	case "interval":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (per-commit | per-batch | interval)", s)
}

// Hooks are fault-injection points around the writer's file operations; the
// chaos package's crash plans latch the writer through them. A non-nil error
// from a hook fails the operation and latches the writer (see Writer.Err).
type Hooks struct {
	BeforeAppend func() error
	AfterAppend  func() error
	BeforeSync   func() error
	AfterSync    func() error
}

func callHook(h func() error) error {
	if h == nil {
		return nil
	}
	return h()
}

// Options configures a Writer.
type Options struct {
	Dir          string
	Policy       Policy
	SegmentBytes int64         // rotate past this many bytes (default 8 MiB)
	BatchAppends int           // per-batch: fsync at this many pending appends (default 32)
	BatchWait    time.Duration // per-batch: max wait before syncing pending appends (default 2ms)
	Interval     time.Duration // interval policy period (default 50ms)
	MetaStart    uint64        // first meta sequence number (recovered meta count)
	Hooks        Hooks
}

func (o *Options) defaults() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.BatchAppends == 0 {
		o.BatchAppends = 32
	}
	if o.BatchWait == 0 {
		o.BatchWait = 2 * time.Millisecond
	}
	if o.Interval == 0 {
		o.Interval = 50 * time.Millisecond
	}
}

// ErrClosed reports an operation on a closed writer.
var ErrClosed = errors.New("wal: writer closed")

// Writer is the append side of the log. It implements stm.CommitLogger.
//
// Failure latching: once any file operation (or injected hook) fails, the
// writer stays failed — every later Append returns the latched error, so
// engines abort new commits (stm.ReasonDurability) instead of acknowledging
// writes that will never reach disk. Records already synced remain durable.
type Writer struct {
	opts Options

	mu       sync.Mutex // file writes, rotation, latched error
	f        *os.File
	seq      uint64 // current segment sequence
	segBytes int64  // bytes written to the current segment
	metaSeq  uint64
	buf      []byte // encode scratch, reused across appends
	failed   error
	failedP  atomic.Pointer[error] // lock-free mirror of failed for Err

	appended atomic.Uint64 // records accepted (the LSN source)
	synced   atomic.Uint64 // records covered by a completed fsync

	syncMu sync.Mutex // serializes fsyncs (group-combining point)

	waitMu   sync.Mutex // per-batch waiter parking
	waitCond *sync.Cond

	kick   chan struct{} // per-batch: first-pending signal to the syncer
	quit   chan struct{}
	done   chan struct{}
	closed atomic.Bool
}

// Open creates (or reuses) dir and starts a fresh segment numbered after the
// highest existing one, so recovery artifacts are never overwritten. Call
// Recover first: Open itself neither reads nor replays old segments.
func Open(opts Options) (*Writer, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, _, err := listDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	w := &Writer{
		opts:    opts,
		metaSeq: opts.MetaStart,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.waitCond = sync.NewCond(&w.waitMu)
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	switch opts.Policy {
	case SyncPerBatch:
		go w.batchSyncer()
	case SyncInterval:
		go w.intervalSyncer()
	default:
		close(w.done)
	}
	return w, nil
}

// Dir returns the log directory.
func (w *Writer) Dir() string { return w.opts.Dir }

// Policy returns the configured fsync policy.
func (w *Writer) Policy() Policy { return w.opts.Policy }

// openSegment opens segment seq for writing; caller holds mu or is Open.
func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(w.opts.Dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	w.f, w.seq, w.segBytes = f, seq, int64(len(segMagic))
	return nil
}

// latch records the first failure; caller holds mu.
func (w *Writer) latch(err error) error {
	if w.failed == nil {
		w.failed = err
		w.failedP.Store(&err)
	}
	w.broadcast()
	return w.failed
}

// Err returns the latched failure, if any. It takes no lock, so the health
// watchdog and parked Durable waiters can poll it freely.
func (w *Writer) Err() error {
	if p := w.failedP.Load(); p != nil {
		return *p
	}
	return nil
}

// Append implements stm.CommitLogger: it stages the write sets of the
// transactions committing under one clock advance, in natural-commit order,
// and returns the record's LSN. The caller still holds the commit write
// locks, so nothing appended here is visible to other transactions yet.
func (w *Writer) Append(recs []stm.CommitRecord) (stm.LSN, error) {
	body, err := encodeCommitBody(nil, recs)
	if err != nil {
		return 0, err
	}
	return w.appendBody(body)
}

// AppendMeta appends application metadata records (e.g. account
// creations), one per payload with consecutive meta sequence numbers, and
// returns the LSN of the last; with no payloads it appends nothing and
// returns 0. The records go out in one write — the bytes are those of one
// call per payload, rotating between records where a single call would —
// but nothing is fsynced: metadata defines variable identity for replay, so
// callers make it durable with SyncTo whatever the policy.
func (w *Writer) AppendMeta(payloads ...[]byte) (stm.LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var (
		lsn stm.LSN
		err error
		// buf holds the n framed records not yet written. It is local, not
		// w.buf: a boot's batch should not stay behind as commit scratch.
		buf, body []byte
		n         uint64
	)
	for _, p := range payloads {
		if n > 0 && w.segBytes+int64(len(buf)) >= w.opts.SegmentBytes {
			// The pending records fill the segment: write them now so the
			// next record opens a new segment, as its own append would.
			if lsn, err = w.writeMetaLocked(buf, n); err != nil {
				return 0, err
			}
			buf, n = buf[:0], 0
		}
		body = encodeMetaBody(body[:0], w.metaSeq+n, p)
		buf = frame(buf, body)
		n++
	}
	if n > 0 {
		lsn, err = w.writeMetaLocked(buf, n)
	}
	return lsn, err
}

// writeMetaLocked writes n framed meta records and consumes their sequence
// numbers; caller holds mu.
func (w *Writer) writeMetaLocked(frames []byte, n uint64) (stm.LSN, error) {
	lsn, err := w.writeLocked(frames, n)
	if err != nil {
		return 0, err
	}
	w.metaSeq += n // seqs consumed only by a successful append
	return lsn, nil
}

func (w *Writer) appendBody(body []byte) (stm.LSN, error) {
	w.mu.Lock()
	w.buf = frame(w.buf[:0], body)
	lsn, err := w.writeLocked(w.buf, 1)
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if w.opts.Policy == SyncPerBatch {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return lsn, nil
}

// writeLocked writes n framed records with one write, rotating first if the
// current segment is full, and returns the LSN of the last; caller holds mu.
func (w *Writer) writeLocked(frames []byte, n uint64) (stm.LSN, error) {
	if w.failed != nil {
		return 0, w.failed
	}
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := callHook(w.opts.Hooks.BeforeAppend); err != nil {
		return 0, w.latch(err)
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(frames); err != nil {
		return 0, w.latch(err)
	}
	w.segBytes += int64(len(frames))
	lsn := stm.LSN(w.appended.Add(n))
	if err := callHook(w.opts.Hooks.AfterAppend); err != nil {
		// The records reached the OS; treat the injected fault as striking
		// after the write — the append still fails, and recovery may or may
		// not see the records, exactly like a real crash in this window.
		return 0, w.latch(err)
	}
	return lsn, nil
}

// Durable implements stm.CommitLogger: it blocks until the record at lsn is
// durable under the configured policy.
func (w *Writer) Durable(lsn stm.LSN) error {
	if w.synced.Load() >= uint64(lsn) {
		return nil
	}
	switch w.opts.Policy {
	case SyncInterval:
		return nil
	case SyncPerBatch:
		w.waitMu.Lock()
		defer w.waitMu.Unlock()
		for w.synced.Load() < uint64(lsn) {
			if err := w.Err(); err != nil {
				return err
			}
			if w.closed.Load() {
				return ErrClosed
			}
			w.waitCond.Wait()
		}
		return nil
	default:
		return w.SyncTo(lsn)
	}
}

// SyncTo blocks until an fsync covers the record at lsn, whatever the
// policy: it is the durable wait for AppendMeta, and Durable's under
// per-commit. The syncMu double-check is the group-combining: a waiter whose
// LSN was covered by a concurrent fsync returns without touching the disk.
func (w *Writer) SyncTo(lsn stm.LSN) error {
	if w.synced.Load() >= uint64(lsn) {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= uint64(lsn) {
		return nil
	}
	return w.syncLocked()
}

// Sync forces an fsync of everything appended so far.
func (w *Writer) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncLocked()
}

// syncLocked performs one fsync covering every record appended before it
// started; caller holds syncMu. Rotation keeps the invariant that every
// segment but the current one is already synced, so syncing the current file
// is enough to advance the watermark to the captured append count.
func (w *Writer) syncLocked() error {
	if err := w.Err(); err != nil {
		return err
	}
	// The hook runs where the fsync itself waits, outside mu: a stalled sync
	// holds up other syncs, not appends.
	if err := callHook(w.opts.Hooks.BeforeSync); err != nil {
		w.mu.Lock()
		err = w.latch(err)
		w.mu.Unlock()
		return err
	}
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	f := w.f
	cur := w.appended.Load()
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		err = w.latch(err)
		w.mu.Unlock()
		return err
	}
	w.mu.Lock()
	if err := callHook(w.opts.Hooks.AfterSync); err != nil {
		err = w.latch(err)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	w.advance(cur)
	return nil
}

// advance raises the synced watermark to cur (monotone) and wakes waiters.
func (w *Writer) advance(cur uint64) {
	for {
		old := w.synced.Load()
		if cur <= old || w.synced.CompareAndSwap(old, cur) {
			break
		}
	}
	w.broadcast()
}

func (w *Writer) broadcast() {
	w.waitMu.Lock()
	w.waitCond.Broadcast()
	w.waitMu.Unlock()
}

// batchSyncer drives the per-batch policy: after the first pending append it
// waits for the batch to fill or the wait horizon to pass, then syncs once
// for everyone.
func (w *Writer) batchSyncer() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			return
		case <-w.kick:
		}
		t := time.NewTimer(w.opts.BatchWait)
	fill:
		for w.pending() < uint64(w.opts.BatchAppends) {
			select {
			case <-w.kick:
			case <-t.C:
				break fill
			case <-w.quit:
				break fill
			}
		}
		t.Stop()
		if w.pending() > 0 {
			w.Sync() //nolint:errcheck // latched; waiters observe Err
		}
	}
}

// intervalSyncer drives the interval policy.
func (w *Writer) intervalSyncer() {
	defer close(w.done)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-tick.C:
			if w.pending() > 0 {
				w.Sync() //nolint:errcheck // latched; waiters observe Err
			}
		}
	}
}

func (w *Writer) pending() uint64 {
	a, s := w.appended.Load(), w.synced.Load()
	if a < s {
		return 0
	}
	return a - s
}

// WALCounters reports append/sync progress for the health watchdog's
// WAL-stall judge: appended and synced record counts, the pending gap, and
// the latched failure (nil while healthy).
func (w *Writer) WALCounters() (appended, synced uint64, pending int, err error) {
	a, s := w.appended.Load(), w.synced.Load()
	p := 0
	if a > s {
		p = int(a - s)
	}
	return a, s, p, w.Err()
}

// Rotate fsyncs and closes the current segment and opens the next one,
// returning the new segment's sequence number. Records appended before the
// rotation all live in segments below the returned sequence; the snapshot
// protocol rotates first so that pruning "everything below seq" after a
// snapshot is safe.
func (w *Writer) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

func (w *Writer) rotateLocked() error {
	cur := w.appended.Load()
	if err := w.f.Sync(); err != nil {
		return w.latch(err)
	}
	if err := w.f.Close(); err != nil {
		return w.latch(err)
	}
	w.advance(cur) // everything in closed segments is durable
	if err := w.openSegment(w.seq + 1); err != nil {
		return w.latch(err)
	}
	return syncDir(w.opts.Dir)
}

// Prune removes segments and snapshots strictly below seq. It is called
// after a snapshot at seq is durably in place; missing files are fine (a
// crash mid-prune just leaves extra covered segments, which replay skips).
func (w *Writer) Prune(seq uint64) error {
	segs, snaps, err := listDir(w.opts.Dir)
	if err != nil {
		return err
	}
	w.mu.Lock()
	active := w.seq
	w.mu.Unlock()
	for _, s := range segs {
		if s.seq < seq && s.seq != active {
			if err := os.Remove(filepath.Join(w.opts.Dir, s.name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	for _, s := range snaps {
		if s.seq < seq {
			if err := os.Remove(filepath.Join(w.opts.Dir, s.name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return syncDir(w.opts.Dir)
}

// Close stops the syncer, fsyncs everything appended, and closes the
// segment. Records appended but never synced before a crash-style shutdown
// are exactly what recovery's torn-tail handling is for; Close itself is the
// graceful path and leaves nothing pending.
func (w *Writer) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		<-w.done
		return w.Err()
	}
	close(w.quit)
	<-w.done
	w.broadcast()
	var first error
	if err := w.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		first = err
	}
	w.mu.Lock()
	if err := w.f.Close(); err != nil && first == nil {
		first = err
	}
	w.mu.Unlock()
	return first
}

// --- directory layout -------------------------------------------------------

type dirFile struct {
	name string
	seq  uint64
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seq))
}

// listDir returns the segment and snapshot files in dir, each sorted by
// sequence number. Unknown names are ignored (editor droppings, temp files).
func listDir(dir string) (segs, snaps []dirFile, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err == nil {
				segs = append(segs, dirFile{name, seq})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if _, err := fmt.Sscanf(name, "snap-%d.snap", &seq); err == nil {
				snaps = append(snaps, dirFile{name, seq})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return segs, snaps, nil
}

// syncDir fsyncs the directory so created/removed names are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
