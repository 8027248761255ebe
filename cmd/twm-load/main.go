// Command twm-load is the open-loop load generator for twm-server. It has two
// modes:
//
//   - External: -url http://host:port drives a running twm-server and prints
//     the latency/outcome report for that one target.
//   - In-process A/B: -engines twm,twm-gc,tl2 boots a server per engine on a
//     loopback listener and offers the identical seeded load to each, so the
//     engines are compared under the same arrival schedule and key draws.
//     This mode produces the committed BENCH_server.json artifact.
//
// Flags:
//
//	-url        external server base URL (mutually exclusive with -engines)
//	-engines    comma-separated engine list for the in-process A/B (default twm,tl2)
//	-rate       offered arrivals/second (default 500)
//	-duration   load duration (default 5s)
//	-accounts   key space size (default 1024)
//	-zipf       Zipf skew s for account selection (default 1.1; 0 = uniform)
//	-update     update fraction of traffic (default 0.5)
//	-seed       replayable schedule seed (default 1)
//	-gate       server gate slots, in-process mode only (0 = server default)
//	-gate-wait  server gate queue bound, in-process mode only
//	-timeout    server request timeout, in-process mode only (default 2s)
//	-json       write the artifact JSON to this path ("-" = stdout)
//	-min-commits fail (exit 1) unless every engine commits at least this many
//	             requests — the CI smoke gate
//
// Latency is measured from each request's scheduled arrival, so queueing and
// shedding at an overloaded server widen the reported percentiles instead of
// slowing the generator down (no coordinated omission).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "twm-load:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("twm-load", flag.ContinueOnError)
	url := fs.String("url", "", "external twm-server base URL (empty = in-process A/B)")
	engineList := fs.String("engines", "twm,tl2", "engines for the in-process A/B")
	rate := fs.Float64("rate", 500, "offered arrivals/second")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	accounts := fs.Int("accounts", 1024, "account key space")
	zipfS := fs.Float64("zipf", 1.1, "Zipf skew (0 = uniform)")
	updatePct := fs.Float64("update", 0.5, "update fraction of traffic")
	seed := fs.Uint64("seed", 1, "replayable schedule seed")
	gate := fs.Int("gate", 0, "server gate slots (in-process mode; 0 = default)")
	gateWait := fs.Duration("gate-wait", 0, "server gate queue bound (in-process mode)")
	timeout := fs.Duration("timeout", 2*time.Second, "server request timeout (in-process mode)")
	jsonPath := fs.String("json", "", "write artifact JSON here (\"-\" = stdout)")
	minCommits := fs.Uint64("min-commits", 0, "fail unless every engine commits at least this many requests")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadgen.Config{
		Rate:      *rate,
		Duration:  *duration,
		Accounts:  *accounts,
		ZipfS:     *zipfS,
		UpdatePct: *updatePct,
		Seed:      *seed,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var art *loadgen.Artifact
	if *url != "" {
		res, err := loadgen.Run(ctx, strings.TrimRight(*url, "/"), cfg)
		if err != nil {
			return err
		}
		art = &loadgen.Artifact{Experiment: "server_latency_external", Config: cfg, Engines: []loadgen.Result{res}}
	} else {
		engines := strings.Split(*engineList, ",")
		for i := range engines {
			engines[i] = strings.TrimSpace(engines[i])
		}
		var err error
		art, err = loadgen.RunInProcess(ctx, engines, cfg, loadgen.ServerOptions{
			GateLimit:      *gate,
			GateWait:       *gateWait,
			RequestTimeout: *timeout,
		})
		if err != nil {
			return err
		}
	}

	report(art)
	if *jsonPath != "" {
		if *jsonPath == "-" {
			if err := art.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			if err := art.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wrote", *jsonPath)
		}
	}

	for _, res := range art.Engines {
		if res.All.OK < *minCommits {
			return fmt.Errorf("%s committed %d requests, need at least %d", res.Engine, res.All.OK, *minCommits)
		}
		if res.LeakedGoroutines != 0 {
			return fmt.Errorf("%s leaked %d goroutines past drain", res.Engine, res.LeakedGoroutines)
		}
	}
	return nil
}

// report prints the human-readable comparison table to stderr (stdout is
// reserved for -json -).
func report(art *loadgen.Artifact) {
	w := os.Stderr
	fmt.Fprintf(w, "%-8s %-6s %8s %8s %6s %6s %6s %9s %9s %9s\n",
		"engine", "class", "sent", "ok", "shed", "cancel", "err", "p50ms", "p99ms", "p999ms")
	for _, res := range art.Engines {
		for _, row := range []struct {
			name string
			st   loadgen.OpStats
		}{{"update", res.Update}, {"ro", res.ReadOnly}, {"all", res.All}} {
			fmt.Fprintf(w, "%-8s %-6s %8d %8d %6d %6d %6d %9.2f %9.2f %9.2f\n",
				res.Engine, row.name, row.st.Sent, row.st.OK, row.st.Shed,
				row.st.Cancelled, row.st.Errors, row.st.P50ms, row.st.P99ms, row.st.P999ms)
		}
		if res.EngineStarts > 0 {
			fmt.Fprintf(w, "%-8s engine: starts=%d commits=%d aborts=%d sheds=%d cancels=%d leaked=%d\n",
				res.Engine, res.EngineStarts, res.EngineCommits, res.EngineAborts,
				res.ServerSheds, res.ServerCancels, res.LeakedGoroutines)
		}
	}
}
