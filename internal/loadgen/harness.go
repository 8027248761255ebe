package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"time"

	"repro/internal/server"
)

// Artifact is the committed BENCH_server.json shape: one load configuration
// applied to each engine under test, in sequence, on the same machine. Cells
// are directly comparable because the arrival schedule and key draws replay
// from the same seed for every engine.
type Artifact struct {
	Experiment string   `json:"experiment"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Config     Config   `json:"config"`
	Engines    []Result `json:"engines"`
}

// WriteJSON emits the artifact with stable indentation so successive runs
// diff cleanly when committed to the repository.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ServerOptions shapes the in-process server each engine is mounted behind.
// Zero values take the server package's defaults.
type ServerOptions struct {
	GateLimit      int
	GateWait       time.Duration
	RequestTimeout time.Duration
	Drain          time.Duration
}

// RunInProcess A/B-tests engines under one load Config: for each engine it
// boots a twm-server on a loopback listener, offers the identical (seeded)
// load with Run, gracefully drains the server, and verifies the whole stack
// wound down (LeakedGoroutines in each Result). Engines run sequentially so
// they never compete for the machine.
func RunInProcess(ctx context.Context, engineNames []string, cfg Config, opts ServerOptions) (*Artifact, error) {
	cfg.fill()
	if opts.Drain <= 0 {
		opts.Drain = 5 * time.Second
	}
	art := &Artifact{
		Experiment: "server_latency_ab",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Config:     cfg,
	}
	for _, name := range engineNames {
		res, err := runOne(ctx, name, cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", name, err)
		}
		art.Engines = append(art.Engines, res)
	}
	return art, nil
}

func runOne(ctx context.Context, engine string, cfg Config, opts ServerOptions) (Result, error) {
	baseline := runtime.NumGoroutine()

	s, err := server.New(server.Config{
		Engine:         engine,
		Accounts:       cfg.Accounts,
		InitialBalance: 1 << 30, // deep pockets: domain refusals would pollute the latency A/B
		GateLimit:      opts.GateLimit,
		GateWait:       opts.GateWait,
		RequestTimeout: opts.RequestTimeout,
		// The measurement is the HTTP responses; server logs would only skew
		// it (stderr writes on the serving path) and flood the bench output.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return Result{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return Result{}, err
	}
	srvCtx, stop := context.WithCancel(ctx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(srvCtx, ln, opts.Drain) }()

	res, runErr := Run(ctx, "http://"+ln.Addr().String(), cfg)
	res.Engine = engine

	snap := s.TM().Stats().Snapshot()
	res.EngineStarts = snap.Starts
	res.EngineCommits = snap.Commits + snap.ROCommits
	res.EngineAborts = snap.Aborts
	m := s.Metrics()
	res.ServerSheds = m.Sheds.Load()
	res.ServerCancels = m.Cancels.Load()

	stop()
	err = <-serveErr
	s.Close()
	if runErr == nil {
		runErr = err
	}

	// Post-drain leak check: give the runtime a moment to retire HTTP and
	// async-transaction goroutines, then record any excess over the pre-start
	// baseline. A nonzero value in a committed artifact is a red flag.
	deadline := time.Now().Add(2 * time.Second)
	leaked := runtime.NumGoroutine() - baseline
	for leaked > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		leaked = runtime.NumGoroutine() - baseline
	}
	res.LeakedGoroutines = max(leaked, 0)
	return res, runErr
}
