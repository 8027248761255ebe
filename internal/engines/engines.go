// Package engines is the registry of the five STM implementations compared in
// the paper's evaluation (plus the TWM no-time-warp ablation). Benchmarks,
// examples and the CLI instantiate engines through this package so every
// consumer agrees on construction defaults.
package engines

import (
	"fmt"
	"sort"

	"repro/internal/avstm"
	"repro/internal/core"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/norec"
	"repro/internal/stm"
	"repro/internal/tl2"
)

// Factory constructs a fresh engine instance.
type Factory func() stm.TM

// factories maps engine names to constructors. Order of PaperSet matches the
// paper's figures (JVSTM, TL2, NOrec, AVSTM, TWM).
var factories = map[string]Factory{
	"twm":        func() stm.TM { return core.New(core.Options{}) },
	"twm-notw":   func() stm.TM { return core.New(core.Options{DisableTimeWarp: true}) },
	"twm-opaque": func() stm.TM { return core.New(core.Options{Opacity: true}) },
	"twm-gc":     func() stm.TM { return core.New(core.Options{GroupCommit: true}) },
	"jvstm":      func() stm.TM { return jvstm.New(jvstm.Options{}) },
	"jvstm-gc":   func() stm.TM { return jvstm.New(jvstm.Options{GroupCommit: true}) },
	"tl2":        func() stm.TM { return tl2.New(tl2.Options{}) },
	"norec":      func() stm.TM { return norec.New() },
	"avstm":      func() stm.TM { return avstm.New() },
}

// PaperSet is the engine lineup of the paper's figures, in their legend order.
func PaperSet() []string { return []string{"jvstm", "tl2", "norec", "avstm", "twm"} }

// Baselines is PaperSet without TWM.
func Baselines() []string { return []string{"jvstm", "tl2", "norec", "avstm"} }

// Names lists all registered engines, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs a fresh instance of the named engine.
func New(name string) (stm.TM, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("engines: unknown engine %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for static names in tests and benchmarks.
func MustNew(name string) stm.TM {
	tm, err := New(name)
	if err != nil {
		panic(err)
	}
	return tm
}

// MultiVersionSet lists the engines that maintain version chains (and hence
// accept a version budget), in PaperSet order.
func MultiVersionSet() []string {
	return []string{"jvstm", "jvstm-gc", "twm", "twm-notw", "twm-opaque", "twm-gc"}
}

// GroupCommitSet lists the engines with a flat-combining group-commit stage
// (DESIGN.md §13), paired with their serial-commit counterparts for A/B runs.
func GroupCommitSet() []string { return []string{"twm-gc", "jvstm-gc"} }

// NewBudgeted constructs one of the multi-versioned engines with a version
// budget and trim depth attached (the resource-exhaustion configuration; see
// DESIGN.md §11). Only the engines in MultiVersionSet support a budget; any
// other name is an error. A zero maxDepth selects the engine's default trim
// depth, and one budget may be shared across several engines to cap their
// combined version memory.
func NewBudgeted(name string, budget *mvutil.VersionBudget, maxDepth int) (stm.TM, error) {
	switch name {
	case "twm":
		return core.New(core.Options{Budget: budget, MaxVersionDepth: maxDepth}), nil
	case "twm-notw":
		return core.New(core.Options{DisableTimeWarp: true, Budget: budget, MaxVersionDepth: maxDepth}), nil
	case "twm-opaque":
		return core.New(core.Options{Opacity: true, Budget: budget, MaxVersionDepth: maxDepth}), nil
	case "twm-gc":
		return core.New(core.Options{GroupCommit: true, Budget: budget, MaxVersionDepth: maxDepth}), nil
	case "jvstm":
		return jvstm.New(jvstm.Options{Budget: budget, MaxVersionDepth: maxDepth}), nil
	case "jvstm-gc":
		return jvstm.New(jvstm.Options{GroupCommit: true, Budget: budget, MaxVersionDepth: maxDepth}), nil
	}
	return nil, fmt.Errorf("engines: engine %q does not support a version budget (have %v)", name, MultiVersionSet())
}

// MustNewBudgeted is NewBudgeted for static names in tests and benchmarks.
func MustNewBudgeted(name string, budget *mvutil.VersionBudget, maxDepth int) stm.TM {
	tm, err := NewBudgeted(name, budget, maxDepth)
	if err != nil {
		panic(err)
	}
	return tm
}

// DurableSet lists the engines that accept a commit logger (DESIGN.md §16):
// the multi-versioned engines, serial and group-commit alike.
func DurableSet() []string { return []string{"jvstm", "jvstm-gc", "twm", "twm-gc"} }

// NewDurable constructs one of the WAL-capable engines with a commit logger
// attached: every update commit appends its write set before any version
// becomes visible and waits out the logger's durability policy before
// acknowledging (the stm.CommitLogger protocol). Attaching the logger at
// construction is safe even while recovery is still replaying — NewVar never
// logs, so re-creating variables with recovered values writes nothing.
func NewDurable(name string, logger stm.CommitLogger) (stm.TM, error) {
	switch name {
	case "twm":
		return core.New(core.Options{Logger: logger}), nil
	case "twm-gc":
		return core.New(core.Options{GroupCommit: true, Logger: logger}), nil
	case "jvstm":
		return jvstm.New(jvstm.Options{Logger: logger}), nil
	case "jvstm-gc":
		return jvstm.New(jvstm.Options{GroupCommit: true, Logger: logger}), nil
	}
	return nil, fmt.Errorf("engines: engine %q does not support a commit logger (have %v)", name, DurableSet())
}

// MustNewDurable is NewDurable for static names in tests and benchmarks.
func MustNewDurable(name string, logger stm.CommitLogger) stm.TM {
	tm, err := NewDurable(name, logger)
	if err != nil {
		panic(err)
	}
	return tm
}
