// Command perfbench is the repository's benchmark: it drives the twm engine
// end to end on one named workload, checks the workload's output, and prints
// one JSON result line. See README.md for the workloads, the metrics and the
// layer each per-layer metric is expected to move.
//
//	perfbench --workload list-rw --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 it runs the workload twice for half the time each,
// untraced then traced, and carries the per-layer metrics of the traced run
// plus trace.overhead.<metric>, the traced-minus-untraced difference of every
// end-to-end metric. The exit status is 1 when an output check fails or the
// run is invalid, 2 on bad arguments.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

var e2eMetrics = []metric{
	{"commits_per_s", "1/s"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// abortReasons are the stm abort reasons the twm engine (and the admission
// gate in front of it) can produce.
var abortReasons = []string{"read-conflict", "write-conflict", "triad", "timewarp-skip", "lock-timeout", "overload", "durability"}

func layerMetrics() []metric {
	ms := []metric{
		{"client.late_p50_us", "us"},
		{"client.late_p99_us", "us"},
		{"client.conn_wait_p99_us", "us"},
		{"client.slo_rate_rps", "1/s"},
		{"server.update_p50_us", "us"},
		{"server.update_p99_us", "us"},
		{"server.read_p50_us", "us"},
		{"server.read_p99_us", "us"},
		{"server.wire_p50_us", "us"},
		{"stm.attempts_per_commit", "ratio"},
	}
	for _, r := range abortReasons {
		ms = append(ms, metric{"stm.aborts_per_commit." + r, "ratio"})
	}
	ms = append(ms,
		metric{"core.begin_ns", "ns"},
		metric{"core.commit_ok_ns", "ns"},
		metric{"core.commit_ok_p99_ns", "ns"},
		metric{"core.commit_fail_ns", "ns"},
		metric{"core.commit_fail_frac", "ratio"},
		metric{"core.reads_per_attempt", "count"},
		metric{"core.writes_per_attempt", "count"},
		metric{"core.stamp_cas_retries_per_commit", "ratio"},
		metric{"core.phase_read_us", "us"},
		metric{"core.phase_readset_val_us", "us"},
		metric{"core.phase_writeset_val_us", "us"},
		metric{"core.phase_commit_us", "us"},
		metric{"core.warped_frac", "ratio"},
		metric{"core.warp_distance_p99", "ticks"},
		metric{"wal.append_p50_us", "us"},
		metric{"wal.append_p99_us", "us"},
		metric{"wal.durable_p50_us", "us"},
		metric{"wal.durable_p99_us", "us"},
		metric{"wal.bytes_per_commit", "B"},
		metric{"runtime.allocs_per_op", "count"},
		metric{"runtime.bytes_per_op", "B"},
		metric{"runtime.gc_cpu_frac", "ratio"},
	)
	for _, m := range e2eMetrics {
		ms = append(ms, metric{"trace.overhead." + m.name, m.unit})
	}
	return ms
}

// runCfg is what a workload run is given.
type runCfg struct {
	seed    uint64
	seconds time.Duration
	traced  bool
}

// outcome is what a workload run returns. Metrics a layer does not see on a
// workload are absent and print as 0 (README.md lists them).
type outcome struct {
	attempted, failed int64
	e2e, layers       map[string]float64
	failures          []string // failed output checks and validity conditions
	notes             []string // human-readable detail, printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

func (o *outcome) failf(format string, a ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, a...))
}

// workload is one named input set of the benchmark.
type workload struct {
	params map[string]any
	run    func(runCfg) (*outcome, error)
}

var workloads = map[string]workload{
	"list-rw":             {listRWParams, runList},
	"ledger-wal-interval": {ledgerParams, runLedger},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name: list-rw or ledger-wal-interval")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (list-rw|ledger-wal-interval), --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	prov := provenance()
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = *name, *seed, *seconds, *trace
	prov["params"] = wl.params
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	res := result{Metrics: map[string]value{}}
	var outs []*outcome
	if *trace == 0 {
		o, err := wl.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		outs = append(outs, o)
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = value{finite(o.e2e[m.name]), m.unit}
		}
	} else {
		cfg.seconds /= 2
		u, err := wl.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced: %v\n", *name, err)
			return 1
		}
		cfg.traced = true
		t, err := wl.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		outs = append(outs, u, t)
		for _, m := range e2eMetrics {
			t.layers["trace.overhead."+m.name] = t.e2e[m.name] - u.e2e[m.name]
		}
		for _, m := range layerMetrics() {
			res.Metrics[m.name] = value{finite(t.layers[m.name]), m.unit}
		}
	}

	res.Correct = true
	for i, o := range outs {
		phase := "untraced"
		if i == 1 {
			phase = "traced"
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, n := range o.notes {
			fmt.Fprintf(stdout, "%s: %s\n", phase, n)
		}
		for _, f := range o.failures {
			fmt.Fprintf(stdout, "%s: CHECK FAILED: %s\n", phase, f)
			res.Correct = false
		}
		printMetrics(stdout, phase, o.e2e)
	}
	if *trace == 1 {
		printMetrics(stdout, "per-layer", outs[1].layers)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics lists a metric map by name, one per line, with units.
func printMetrics(w io.Writer, phase string, m map[string]float64) {
	units := map[string]string{}
	for _, x := range append(layerMetrics(), e2eMetrics...) {
		units[x.name] = x.unit
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s: %-40s %14.4f %s\n", phase, n, m[n], units[n])
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// provenance records the host and the code a result came from.
func provenance() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_dirty"] = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (skipping hidden
// directories), identifying the code under test where no VCS data is
// available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
