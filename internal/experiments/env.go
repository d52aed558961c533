// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment consumes a shared Env — the training corpus
// (HDTR), the held-out SPEC2017-like test corpus, their simulated
// telemetry, and the PF-selected counter set — and prints the same rows or
// series the paper reports.
//
// Experiments run at a configurable Scale; absolute numbers differ from
// the paper (the substrate is a synthetic simulator), but each experiment
// targets the paper's qualitative shape, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/counters"
	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// Scale sizes the corpora and the statistical effort of the experiments.
type Scale struct {
	Name string

	HDTRApps         int // applications in the training corpus
	HDTRTracesPerApp int
	HDTRInstrs       int // instructions per training trace

	SPECTracesPerWorkload int
	SPECInstrs            int

	Folds     int // cross-validation folds (paper: 32)
	MLPEpochs int // Adam epochs for screening MLPs

	// Fig4Sizes are the tuning-set sizes swept in Figure 4.
	Fig4Sizes []int
	// Fig5Counters are the counter counts swept in Figure 5.
	Fig5Counters []int

	// SweepTraces bounds the SPEC subset the guardrail-sweep study deploys
	// on (the sweep redeploys every trace once per config×plan arm, so the
	// full corpus would dominate the run). Zero uses the whole corpus.
	SweepTraces int

	// FleetMachines is the simulated fleet size of the rollout study. Must
	// stay divisible by 12 so the staged ring layouts and the big-bang wave
	// schedule land on the same time-to-full-fleet. Zero selects 24.
	FleetMachines int

	// CtrlMachines is the simulated datacenter size of the control-plane
	// soak study (exp ctrlplane-soak). Unlike FleetMachines it has no
	// divisibility constraint — the control plane sizes its rings by
	// fraction. Zero selects 10_000.
	CtrlMachines int

	// Workers bounds every worker pool the experiments fan out on —
	// corpus generation, trace simulation, deployment, and
	// cross-validation folds. Zero uses every core; 1 forces the serial
	// paths. Results are bit-identical at any setting.
	Workers int
}

// QuickScale is sized for tests and benchmarks: minutes of total work.
func QuickScale() Scale {
	return Scale{
		Name:     "quick",
		HDTRApps: 84, HDTRTracesPerApp: 2, HDTRInstrs: 550_000,
		SPECTracesPerWorkload: 1, SPECInstrs: 650_000,
		Folds: 4, MLPEpochs: 10,
		Fig4Sizes:     []int{1, 5, 20, 60},
		Fig5Counters:  []int{2, 4, 8, 12, 24},
		SweepTraces:   8,
		FleetMachines: 24,
		CtrlMachines:  10_000,
	}
}

// DefaultScale reproduces the paper's corpus sizes with scaled trace
// lengths; a full paperbench run takes tens of minutes on one core and
// scales down near-linearly with the worker count.
func DefaultScale() Scale {
	return Scale{
		Name:     "default",
		HDTRApps: 593, HDTRTracesPerApp: 3, HDTRInstrs: 650_000,
		SPECTracesPerWorkload: 3, SPECInstrs: 700_000,
		Folds: 8, MLPEpochs: 12,
		Fig4Sizes:     []int{1, 5, 10, 20, 50, 100, 200, 300, 440},
		Fig5Counters:  []int{2, 4, 8, 12, 16, 24, 32},
		SweepTraces:   20,
		FleetMachines: 48,
		CtrlMachines:  50_000,
	}
}

// FullScale matches the paper's statistical effort (32 folds); expect
// hours at -workers=1, so run it on all cores (the default).
func FullScale() Scale {
	s := DefaultScale()
	s.Name = "full"
	s.HDTRTracesPerApp = 4
	s.SPECTracesPerWorkload = 5
	s.Folds = 32
	s.MLPEpochs = 25
	s.SweepTraces = 40
	s.FleetMachines = 96
	s.CtrlMachines = 100_000
	return s
}

// Env is the shared experimental environment.
type Env struct {
	Scale Scale
	Cfg   dataset.Config
	CS    *telemetry.CounterSet
	PM    *power.Model
	Spec  mcu.Spec
	Seed  int64

	HDTR    *trace.Corpus
	HDTRTel []*dataset.TraceTelemetry
	SPEC    *trace.Corpus
	SPECTel []*dataset.TraceTelemetry

	// PFColumns are the counter-set indices chosen by PF Counter Selection
	// on HDTR telemetry (Section 6.2); PFNames are their names.
	PFColumns []int
	PFNames   []string
	// ExpertColumns are the Eyerman et al. counters CHARSTAR uses.
	ExpertColumns []int

	// Sim is the simulation oracle every experiment deployment routes
	// through; nil selects the exact simulator. paperbench installs a
	// surrogate oracle here under -sim surrogate|validate.
	Sim core.SimOracle

	// Log receives progress lines; nil silences them.
	Log io.Writer

	// ranking is the longest PF ranking TopCounters has computed, selected
	// with R = rankR (it is shorter when selection runs out of counters).
	rankMu  sync.Mutex
	rankR   int
	ranking []int
}

// SimOracle returns the environment's simulation oracle, defaulting to
// the exact simulator. Experiments must reach Deploy/SimulateCorpus
// through it so exact/surrogate/validate selection stays in one place.
func (e *Env) SimOracle() core.SimOracle {
	if e.Sim != nil {
		return e.Sim
	}
	return core.ExactOracle{}
}

// NewEnv builds corpora, simulates telemetry (memoised under cacheDir),
// and runs counter selection.
func NewEnv(scale Scale, cacheDir string, seed int64) (*Env, error) {
	return NewEnvLogged(scale, cacheDir, seed, nil)
}

// NewEnvLogged is NewEnv with progress lines written to log during the
// (potentially long) corpus simulation.
func NewEnvLogged(scale Scale, cacheDir string, seed int64, log io.Writer) (*Env, error) {
	envSpan := obs.Start("env")
	defer envSpan.End()
	e := &Env{
		Log:   log,
		Scale: scale,
		Cfg:   dataset.DefaultConfig(),
		CS:    telemetry.NewStandardCounterSet(),
		PM:    power.DefaultModel(),
		Spec:  mcu.DefaultSpec(),
		Seed:  seed,
	}
	e.Cfg.Workers = scale.Workers

	buildSpan := obs.Start("env/build-corpora")
	e.HDTR = trace.BuildHDTR(trace.HDTRConfig{
		Apps:             scale.HDTRApps,
		MeanTracesPerApp: scale.HDTRTracesPerApp,
		InstrsPerTrace:   scale.HDTRInstrs,
		Seed:             seed,
		Workers:          scale.Workers,
	})
	e.SPEC = trace.BuildSPEC(trace.SPECConfig{
		TracesPerWorkload: scale.SPECTracesPerWorkload,
		InstrsPerTrace:    scale.SPECInstrs,
		Seed:              seed + 1,
		Workers:           scale.Workers,
	})
	buildSpan.End()

	var err error
	start := time.Now()
	simSpan := obs.Start("env/hdtr-telemetry")
	e.HDTRTel, err = e.SimOracle().SimulateCorpus(e.HDTR, e.Cfg, cacheDir)
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: HDTR telemetry: %w", err)
	}
	e.logf("HDTR telemetry: %d traces in %.1fs", len(e.HDTRTel), time.Since(start).Seconds())

	start = time.Now()
	simSpan = obs.Start("env/spec-telemetry")
	e.SPECTel, err = e.SimOracle().SimulateCorpus(e.SPEC, e.Cfg, cacheDir)
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: SPEC telemetry: %w", err)
	}
	e.logf("SPEC telemetry: %d traces in %.1fs", len(e.SPECTel), time.Since(start).Seconds())

	start = time.Now()
	selSpan := obs.Start("env/select-counters")
	err = e.selectCounters()
	selSpan.End()
	if err != nil {
		return nil, err
	}
	e.logf("PF counter selection in %.1fs: %v", time.Since(start).Seconds(), e.PFNames)

	e.ExpertColumns, err = columnsByName(e.CS, telemetry.ExpertNames())
	if err != nil {
		return nil, err
	}
	return e, nil
}

// selectCounters runs the Section 6.2 pipeline on a telemetry subsample.
func (e *Env) selectCounters() error {
	// Subsample traces for the 936-counter expansion: the covariance needs
	// thousands of samples, not hundreds of thousands.
	sub := e.HDTRTel
	const maxTraces = 220
	if len(sub) > maxTraces {
		step := len(sub) / maxTraces
		var pick []*dataset.TraceTelemetry
		for i := 0; i < len(sub); i += step {
			pick = append(pick, sub[i])
		}
		sub = pick
	}
	raw := dataset.CounterTraces(sub, e.CS, uarch.ModeLowPower)
	cols, err := counters.Select(raw, counters.DefaultScreens(), counters.DefaultPFConfig())
	if err != nil {
		return fmt.Errorf("experiments: PF selection: %w", err)
	}
	e.PFColumns = cols
	e.PFNames = make([]string, len(cols))
	for i, c := range cols {
		e.PFNames[i] = e.CS.Names[c]
	}
	return nil
}

// TopCounters returns the first r PF-selected counters (PF selection is
// ordered by information content, so prefixes are the Figure 5 sweep).
// When r exceeds the selected set, selection is re-run with a larger R on
// the first 120 HDTR traces. PF selection is greedy and R only ends its
// loop, so a ranking selected with a smaller R is a prefix of one selected
// with a larger R: the Env keeps its longest and serves shorter requests
// from it.
func (e *Env) TopCounters(r int) ([]int, error) {
	if r <= len(e.PFColumns) {
		return e.PFColumns[:r], nil
	}
	e.rankMu.Lock()
	defer e.rankMu.Unlock()
	if r > e.rankR {
		sub := e.HDTRTel
		if len(sub) > 120 {
			sub = sub[:120]
		}
		raw := dataset.CounterTraces(sub, e.CS, uarch.ModeLowPower)
		cfg := counters.DefaultPFConfig()
		cfg.R = r
		cols, err := counters.Select(raw, counters.DefaultScreens(), cfg)
		if err != nil {
			return nil, err
		}
		e.rankR, e.ranking = r, cols
	}
	return slices.Clone(e.ranking[:min(r, len(e.ranking))]), nil
}

func (e *Env) logf(format string, args ...any) {
	if e.Log != nil {
		fmt.Fprintf(e.Log, "# "+format+"\n", args...)
	}
}

func columnsByName(cs *telemetry.CounterSet, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := cs.Index(n)
		if idx < 0 {
			return nil, fmt.Errorf("experiments: counter %q missing", n)
		}
		out[i] = idx
	}
	return out, nil
}

// DefaultScaleSpec returns the paper's microcontroller spec (a convenience
// mirror of mcu.DefaultSpec for tests and tools in this package).
func DefaultScaleSpec() mcu.Spec { return mcu.DefaultSpec() }
