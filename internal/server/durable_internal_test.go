package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/wal"
)

// bootConfig is a durable server over dir with no watchdog and no periodic
// checkpoints, logging nowhere.
func bootConfig(dir string, accounts int, hooks wal.Hooks) Config {
	return Config{
		Engine:         "twm",
		Accounts:       accounts,
		InitialBalance: 1000,
		WALDir:         dir,
		SnapshotEvery:  -1,
		WatchdogEvery:  -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		walHooks:       hooks,
	}
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rr
}

func audit(t *testing.T, h http.Handler) auditView {
	t.Helper()
	rr := serve(h, "GET", "/v1/audit", "")
	var v auditView
	if err := json.Unmarshal(rr.Body.Bytes(), &v); rr.Code != http.StatusOK || err != nil {
		t.Fatalf("audit: %d %s (%v)", rr.Code, rr.Body, err)
	}
	return v
}

// TestDurableBootSeedOneFsync: booting on a fresh directory with N accounts
// costs one meta fsync, not N.
func TestDurableBootSeedOneFsync(t *testing.T) {
	var syncs atomic.Int64
	s, err := New(bootConfig(t.TempDir(), 1024, wal.Hooks{
		BeforeSync: func() error { syncs.Add(1); return nil },
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := syncs.Load(); n != 1 {
		t.Fatalf("boot with 1024 accounts cost %d fsyncs, want 1", n)
	}
	if n := s.Ledger().Size(); n != 1024 {
		t.Fatalf("ledger has %d accounts, want 1024", n)
	}
}

// TestDurableBootCrashDuringSeeding crashes the log while New seeds its
// accounts, then reboots on the same directory: the reboot recovers a prefix
// of the seed's meta records (the replay's variable-id assertion checks each
// one), re-creates the rest, and the ledger conserves N × initial.
func TestDurableBootCrashDuringSeeding(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		name    string
		point   chaos.CrashPoint
		corrupt chaos.CorruptMode
		keep    float64 // share of the record bytes the crash leaves on disk
	}{
		{"after-append/tear-tail", chaos.CrashAfterAppend, chaos.CorruptTearTail, 1},
		{"before-sync/half-lost", chaos.CrashBeforeSync, chaos.CorruptNone, 0.5},
		{"before-sync/all-kept", chaos.CrashBeforeSync, chaos.CorruptNone, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plan := &chaos.CrashPlan{Point: tc.point, AfterOps: 1, Corrupt: tc.corrupt}
			if _, err := New(bootConfig(dir, n, plan.Hooks())); !errors.Is(err, chaos.ErrCrash) {
				t.Fatalf("New with a crash during seeding: err=%v, want chaos.ErrCrash", err)
			}
			if err := plan.Mutilate(dir); err != nil {
				t.Fatal(err)
			}
			if tc.keep < 1 {
				seg := filepath.Join(dir, "wal-00000001.seg")
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				magic := int64(len("TWMWAL1\n"))
				if err := os.Truncate(seg, magic+int64(float64(info.Size()-magic)*tc.keep)); err != nil {
					t.Fatal(err)
				}
			}

			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := len(rec.Metas)
			if lossy := tc.keep < 1 || tc.corrupt != chaos.CorruptNone; lossy && k >= n || !lossy && k != n {
				t.Fatalf("recovered %d metas of %d (lossy=%v)", k, n, lossy)
			}
			for i, p := range rec.Metas {
				var m accountMeta
				if err := json.Unmarshal(p, &m); err != nil || m.ID != fmt.Sprint(i) || m.Balance != 1000 {
					t.Fatalf("meta %d = %s (%v), want account %d", i, p, err, i)
				}
			}

			s, err := New(bootConfig(dir, n, wal.Hooks{}))
			if err != nil {
				t.Fatalf("reboot after recovering %d of %d metas: %v", k, n, err)
			}
			h := s.Handler()
			if v := audit(t, h); v.Accounts != n || v.TotalBalance != n*1000 || v.TotalHeld != 0 {
				t.Fatalf("audit after reboot (%d metas recovered): %+v, want %d accounts, %d total", k, v, n, n*1000)
			}
			if rr := serve(h, "POST", "/v1/transfer", fmt.Sprintf(`{"from":"0","to":"%d","amount":7}`, n-1)); rr.Code != http.StatusOK {
				t.Fatalf("transfer after reboot: %d %s", rr.Code, rr.Body)
			}
			s.Close() // final checkpoint covers the re-created accounts

			s2, err := New(bootConfig(dir, n, wal.Hooks{}))
			if err != nil {
				t.Fatalf("third boot: %v", err)
			}
			defer s2.Close()
			if v := audit(t, s2.Handler()); v.Accounts != n || v.TotalBalance != n*1000 {
				t.Fatalf("audit after third boot: %+v", v)
			}
			if got := s2.Ledger().IDs(); !reflect.DeepEqual(got, s.Ledger().IDs()) {
				t.Fatalf("third boot has accounts %v, want %v", got, s.Ledger().IDs())
			}
		})
	}
}

// TestDurableCreateSyncOffLock: an online create waits for its meta fsync
// after releasing the ledger lock. While the fsync is stalled, lookups — a
// GET of another account and a transfer — complete; the create itself
// answers only after the fsync does.
func TestDurableCreateSyncOffLock(t *testing.T) {
	var stall atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	hooks := wal.Hooks{BeforeSync: func() error {
		if stall.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	}}
	cfg := bootConfig(t.TempDir(), 4, hooks)
	cfg.FsyncPolicy = "interval" // commits do not wait on the stalled fsync
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	stall.Store(true)
	created := make(chan *httptest.ResponseRecorder, 1)
	go func() { created <- serve(h, "POST", "/v1/accounts", `{"id":"new","balance":50}`) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the create never reached its fsync")
	}

	for _, req := range []struct{ method, path, body string }{
		{"GET", "/v1/accounts/1", ""},
		{"POST", "/v1/transfer", `{"from":"2","to":"3","amount":5}`},
	} {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- serve(h, req.method, req.path, req.body) }()
		select {
		case rr := <-done:
			if rr.Code != http.StatusOK {
				t.Fatalf("%s %s during the stalled create: %d %s", req.method, req.path, rr.Code, rr.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %s blocked behind the create's fsync", req.method, req.path)
		}
	}
	select {
	case rr := <-created:
		t.Fatalf("create answered %d before its fsync completed", rr.Code)
	default:
	}

	close(release)
	released = true
	select {
	case rr := <-created:
		if rr.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rr.Code, rr.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create did not return after its fsync")
	}
}

// TestDurableCreateSyncFailure: a failed meta fsync fails the create and
// latches the log, so no later commit is acknowledged against it.
func TestDurableCreateSyncFailure(t *testing.T) {
	var fail atomic.Bool
	errDisk := errors.New("disk gone")
	cfg := bootConfig(t.TempDir(), 2, wal.Hooks{BeforeSync: func() error {
		if fail.Load() {
			return errDisk
		}
		return nil
	}})
	cfg.RequestTimeout = 100 * time.Millisecond // commits on a latched log retry until the deadline
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fail.Store(true)
	if err := s.Ledger().Create("x", 10); !errors.Is(err, errDisk) {
		t.Fatalf("Create with a failing fsync: %v, want %v", err, errDisk)
	}
	if !errors.Is(s.WAL().Err(), errDisk) {
		t.Fatalf("log not latched after the failed fsync: %v", s.WAL().Err())
	}
	if rr := serve(s.Handler(), "POST", "/v1/transfer", `{"from":"0","to":"1","amount":1}`); rr.Code == http.StatusOK {
		t.Fatal("a transfer committed on a latched log")
	}
}
