// Command twm-server serves the transactional ledger API over an STM engine.
//
// Usage:
//
//	twm-server [flags]
//
// Every flag also reads an environment default (TWM_SERVER_<FLAG>, dashes as
// underscores), so container deployments configure it without a wrapper
// script; an explicit flag wins over the environment.
//
//	-addr     listen address                     (TWM_SERVER_ADDR, :8080)
//	-engine   STM engine from the registry       (TWM_SERVER_ENGINE, twm)
//	-accounts pre-created accounts               (TWM_SERVER_ACCOUNTS, 1024)
//	-balance  initial balance per account        (TWM_SERVER_BALANCE, 1000)
//	-gate     admission-gate slots               (TWM_SERVER_GATE, 4×GOMAXPROCS)
//	-gate-wait queue bound before a 429          (TWM_SERVER_GATE_WAIT, 0 = shed)
//	-timeout  per-request transaction deadline   (TWM_SERVER_TIMEOUT, 2s)
//	-drain    graceful-shutdown drain window     (TWM_SERVER_DRAIN, 5s)
//	-log      log level: debug|info|warn|error   (TWM_SERVER_LOG, info)
//	-debug    enable the /debugz fault drills    (TWM_SERVER_DEBUG, false)
//	-wal      WAL directory; empty = volatile    (TWM_SERVER_WAL, "")
//	-fsync    per-commit|per-batch|interval      (TWM_SERVER_FSYNC, per-commit)
//	-snapshot-every periodic checkpoint interval (TWM_SERVER_SNAPSHOT_EVERY, 1m)
//
// With -wal the server is durable: boot replays the directory's snapshot and
// log before the listener opens, commits append their write sets before they
// are acknowledged (zero committed-transaction loss at -fsync per-commit),
// and shutdown writes a final checkpoint so the next boot replays almost
// nothing. See DESIGN.md §16.
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener closes, in-flight
// requests run to completion inside the drain window (each bounded by the
// request timeout), then anything still retrying is cancelled. A second
// signal kills the process the usual way.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engines"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "twm-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("twm-server", flag.ContinueOnError)
	addr := fs.String("addr", envStr("ADDR", ":8080"), "listen address")
	engine := fs.String("engine", envStr("ENGINE", "twm"), "STM engine (one of "+strings.Join(engines.Names(), ", ")+")")
	accounts := fs.Int("accounts", envInt("ACCOUNTS", 1024), "pre-created accounts")
	balance := fs.Int64("balance", int64(envInt("BALANCE", 1000)), "initial balance per account")
	gate := fs.Int("gate", envInt("GATE", 0), "admission-gate slots (0 = 4×GOMAXPROCS)")
	gateWait := fs.Duration("gate-wait", envDur("GATE_WAIT", 0), "bounded queueing at the gate before a 429 (0 = pure shed)")
	timeout := fs.Duration("timeout", envDur("TIMEOUT", 2*time.Second), "per-request transaction deadline")
	drain := fs.Duration("drain", envDur("DRAIN", 5*time.Second), "graceful-shutdown drain window")
	logLevel := fs.String("log", envStr("LOG", "info"), "log level: debug|info|warn|error")
	debug := fs.Bool("debug", envBool("DEBUG", false), "enable the /debugz fault-drill endpoints")
	walDir := fs.String("wal", envStr("WAL", ""), "write-ahead-log directory (empty = volatile server)")
	fsync := fs.String("fsync", envStr("FSYNC", ""), "fsync policy: per-commit|per-batch|interval (default per-commit)")
	snapEvery := fs.Duration("snapshot-every", envDur("SNAPSHOT_EVERY", time.Minute), "periodic checkpoint interval (<0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log %q: %w", *logLevel, err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := server.New(server.Config{
		Engine:         *engine,
		Accounts:       *accounts,
		InitialBalance: *balance,
		GateLimit:      *gate,
		GateWait:       *gateWait,
		RequestTimeout: *timeout,
		Logger:         log,
		Debug:          *debug,
		WALDir:         *walDir,
		FsyncPolicy:    *fsync,
		SnapshotEvery:  *snapEvery,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Info("twm-server listening", "addr", ln.Addr().String(), "engine", *engine,
		"accounts", *accounts, "gate", srv.Gate().Limit(), "timeout", *timeout, "wal", *walDir)
	err = srv.Serve(ctx, ln, *drain)
	m := srv.Metrics()
	log.Info("twm-server stopped",
		"requests", m.Requests.Load(), "commits", m.Commits.Load(),
		"sheds", m.Sheds.Load(), "cancels", m.Cancels.Load(), "panics", m.Panics.Load(), "err", err)
	return err
}

// envStr/envInt/envDur/envBool read TWM_SERVER_<key> fallbacks for flag
// defaults.
func envStr(key, def string) string {
	if v := os.Getenv("TWM_SERVER_" + key); v != "" {
		return v
	}
	return def
}

func envInt(key string, def int) int {
	if v := os.Getenv("TWM_SERVER_" + key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func envDur(key string, def time.Duration) time.Duration {
	if v := os.Getenv("TWM_SERVER_" + key); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

func envBool(key string, def bool) bool {
	if v := os.Getenv("TWM_SERVER_" + key); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return def
}
