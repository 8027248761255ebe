// Command twm-bench regenerates every table and figure of the paper's
// evaluation (§5 of Diegues & Romano, PPoPP 2014) against this repository's
// STM engines.
//
// Usage:
//
//	twm-bench [flags] <experiment>
//
// Experiments:
//
//	skiplist   Fig. 3(a)+(b): SkipList throughput and abort rate
//	counters   Fig. 4(a): two shared counters (worst-case contention)
//	disjoint   Fig. 4(b): per-thread SkipLists (conflict-free)
//	overhead   Fig. 4(c): per-phase overhead breakdown
//	tree       ablation: treap vs red-black tree ordered maps (-zipf for skew)
//	stamp      Fig. 5 panel for one application (-app)
//	summary    Fig. 5(a)-(h) + Fig. 5(i) + Table 2 (all applications)
//	pressure   resource-exhaustion: stabilize/degrade/recover under a
//	           version budget, with admission gating and watchdog alerts
//	readscale  read-path scalability: read-dominated IntSet sweep over
//	           goroutine counts, emitting BENCH_readscale.json (-json)
//	groupcommit  commit pipelining: write-heavy Zipf counters A/B of each
//	           serial engine vs its flat-combining group-commit variant,
//	           emitting BENCH_groupcommit.json (-json)
//	durability fsync-policy latency ladder of the write-ahead log (off /
//	           interval / per-batch / per-commit) on the WAL-capable
//	           engines, emitting BENCH_durability.json (-json)
//	all        everything above (except the sweeps with their own axes)
//
// Flags select engines, thread counts, per-cell duration for the
// microbenchmarks, and input scale. The defaults are container-sized; pass
// -scale paper for the paper's input sizes (skiplist only; STAMP apps use
// their default presets).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engines"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "twm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("twm-bench", flag.ContinueOnError)
	engineList := fs.String("engines", strings.Join(engines.PaperSet(), ","), "comma-separated engines to run")
	threadList := fs.String("threads", "1,4,8,16,32,64", "comma-separated goroutine counts")
	duration := fs.Duration("duration", 400*time.Millisecond, "per-cell duration for fixed-duration microbenchmarks")
	scale := fs.String("scale", "default", "input scale: default | paper (microbenchmarks) | small")
	app := fs.String("app", "", "application for the stamp experiment (see summary for names)")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	yieldEvery := fs.Int("yield-every", 1, "inject a scheduler yield after every N-th transactional barrier to simulate multi-core overlap on few cores (0 disables)")
	zipf := fs.Float64("zipf", 0, "Zipf skew for the tree experiment (0 = uniform)")
	csvPath := fs.String("csv", "", "also append machine-readable results to this CSV file")
	jsonPath := fs.String("json", "auto", "output path for the experiment's JSON artifact (auto = BENCH_<experiment>.json; empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d", fs.NArg())
	}
	exp := fs.Arg(0)

	threads, err := parseThreads(*threadList)
	if err != nil {
		return err
	}
	engineNames := strings.Split(*engineList, ",")
	for _, e := range engineNames {
		if _, err := engines.New(e); err != nil {
			return err
		}
	}
	cfg := bench.FigureConfig{Engines: engineNames, Threads: threads, Duration: *duration, Seed: *seed, YieldEvery: *yieldEvery}

	sl := bench.DefaultSkipList()
	if *scale == "paper" {
		sl = bench.PaperSkipList()
	}
	dj := bench.DefaultDisjoint()
	stampScale := "default"
	if *scale == "small" {
		stampScale = "small"
		sl = bench.SkipListConfig{Elements: 1000, KeyRange: 2000, UpdatePct: 0.25, Seed: *seed}
		dj = bench.DisjointConfig{ElementsPerList: 200, KeyRange: 400, Seed: *seed}
	}

	out := os.Stdout
	emit, closeCSV, err := csvSink(*csvPath)
	if err != nil {
		return err
	}
	defer closeCSV()

	switch exp {
	case "skiplist":
		res, err := bench.Fig3SkipList(out, cfg, sl)
		return emit("fig3-skiplist", res, err)
	case "counters":
		res, err := bench.Fig4aCounters(out, cfg)
		return emit("fig4a-counters", res, err)
	case "disjoint":
		res, err := bench.Fig4bDisjoint(out, cfg, dj)
		return emit("fig4b-disjoint", res, err)
	case "overhead":
		res, err := bench.Fig4cOverhead(out, cfg, dj)
		return emit("fig4c-overhead", res, err)
	case "tree":
		elements := 2000
		if *scale == "small" {
			elements = 500
		}
		res, err := bench.TreeFigure(out, cfg, elements, *zipf)
		return emit("tree", res, err)
	case "stamp":
		apps, err := bench.StampApps(stampScale)
		if err != nil {
			return err
		}
		mk, ok := apps[*app]
		if !ok {
			return fmt.Errorf("unknown app %q (have %v)", *app, bench.StampAppNames())
		}
		res, err := bench.Fig5Stamp(out, cfg, mk)
		return emit("fig5-"+*app, res, err)
	case "summary":
		return summary(cfg, stampScale, emit)
	case "pressure":
		res, err := bench.PressureFigure(out, cfg, bench.DefaultPressure())
		return emit("pressure", res, err)
	case "readscale":
		rs := bench.DefaultReadScaling()
		if *scale == "small" {
			rs = bench.ReadScalingConfig{Elements: 200, KeyRange: 400, UpdatePct: 0.05, Seed: *seed}
		}
		if *threadList == "1,4,8,16,32,64" { // default axis: use the readscale sweep
			cfg.Threads = bench.ReadScalingThreads()
		}
		res, err := bench.ReadScaleFigure(out, cfg, rs)
		if err != nil {
			return err
		}
		art := bench.NewReadScaleArtifact(cfg, rs, res)
		if err := writeArtifact(artifactPath(*jsonPath, "readscale"), art.WriteJSON, len(art.Cells)); err != nil {
			return err
		}
		return emit("readscale", res, nil)
	case "groupcommit":
		gc := bench.DefaultGroupCommit()
		if *scale == "small" {
			gc = bench.GroupCommitConfig{Counters: 256, WritesPerTx: 4, ZipfS: 1.1, Seed: *seed}
		}
		// The A/B sweep has its own default axes: the serial/grouped engine
		// pairs and the goroutine counts of the EXPERIMENTS.md table.
		if *engineList == strings.Join(engines.PaperSet(), ",") {
			cfg.Engines = bench.GroupCommitEngines()
		}
		if *threadList == "1,4,8,16,32,64" {
			cfg.Threads = bench.GroupCommitThreads()
		}
		res, err := bench.GroupCommitFigure(out, cfg, gc)
		if err != nil {
			return err
		}
		art := bench.NewGroupCommitArtifact(cfg, gc, res)
		if err := writeArtifact(artifactPath(*jsonPath, "groupcommit"), art.WriteJSON, len(art.Cells)); err != nil {
			return err
		}
		return emit("groupcommit", res, nil)
	case "durability":
		dc := bench.DefaultDurability()
		if *scale == "small" {
			dc.Accounts = 128
		}
		dc.Seed = *seed
		// The ladder has its own axes: the WAL-capable engine pair and one
		// goroutine count (the policy, not the thread sweep, is the x-axis).
		durEngines := engineNames
		if *engineList == strings.Join(engines.PaperSet(), ",") {
			durEngines = bench.DurabilityEngines()
		}
		durThreads := bench.DurabilityThreads()
		if *threadList != "1,4,8,16,32,64" && len(threads) > 0 {
			durThreads = threads[len(threads)-1]
		}
		art, err := bench.DurabilityFigure(out, durEngines, bench.DurabilityPolicies(), durThreads, *duration, dc)
		if err != nil {
			return err
		}
		if err := writeArtifact(artifactPath(*jsonPath, "durability"), art.WriteJSON, len(art.Cells)); err != nil {
			return err
		}
		return emit("durability", nil, nil)
	case "all":
		if res, err := bench.Fig3SkipList(out, cfg, sl); emit("fig3-skiplist", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4aCounters(out, cfg); emit("fig4a-counters", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4bDisjoint(out, cfg, dj); emit("fig4b-disjoint", res, err) != nil {
			return err
		}
		if res, err := bench.Fig4cOverhead(out, cfg, dj); emit("fig4c-overhead", res, err) != nil {
			return err
		}
		return summary(cfg, stampScale, emit)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// artifactPath resolves the -json flag for an experiment: "auto" selects the
// conventional BENCH_<experiment>.json, empty disables the artifact.
func artifactPath(flagValue, experiment string) string {
	if flagValue == "auto" {
		return "BENCH_" + experiment + ".json"
	}
	return flagValue
}

// writeArtifact writes a JSON artifact via the provided encoder; an empty
// path writes nothing.
func writeArtifact(path string, write func(io.Writer) error, cells int) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells)\n", path, cells)
	return nil
}

// emitFunc forwards a figure's results to the optional CSV sink.
type emitFunc func(experiment string, results []bench.Result, err error) error

// csvSink opens the optional CSV file and returns the emit hook.
func csvSink(path string) (emitFunc, func(), error) {
	if path == "" {
		return func(_ string, _ []bench.Result, err error) error { return err }, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if info, err := f.Stat(); err == nil && info.Size() == 0 {
		if err := bench.CSVHeader(f); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	emit := func(experiment string, results []bench.Result, err error) error {
		if err != nil {
			return err
		}
		return bench.WriteCSV(f, experiment, results)
	}
	return emit, func() { f.Close() }, nil
}

// summary runs every STAMP panel and prints Fig. 5(i) and Table 2.
func summary(cfg bench.FigureConfig, scale string, emit emitFunc) error {
	apps, err := bench.StampApps(scale)
	if err != nil {
		return err
	}
	var sum bench.Summary
	for _, name := range bench.StampAppNames() {
		results, err := bench.Fig5Stamp(os.Stdout, cfg, apps[name])
		if err := emit("fig5-"+name, results, err); err != nil {
			return err
		}
		sum.Add(name, results)
	}
	ref := "twm"
	found := false
	for _, e := range cfg.Engines {
		if e == ref {
			found = true
		}
	}
	if found {
		sum.Fig5iSpeedups(os.Stdout, ref)
	}
	sum.Table2(os.Stdout)
	sum.ReasonHistogram(os.Stdout)
	return nil
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
