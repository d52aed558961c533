// Package dataset implements the paper's data pipeline (Section 4.1):
// every trace is played through the cycle-level simulator in both cluster
// configurations, IPC and telemetry are snapshot every 10k instructions,
// counters are normalised per cycle, and each interval t is labelled with
// the best configuration for interval t+2 — leaving one interval for the
// microcontroller to compute its prediction (Figure 3).
package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"clustergate/internal/ml"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// Config controls telemetry recording.
type Config struct {
	// Interval is the snapshot granularity in instructions (paper: 10k).
	Interval int
	// Warmup is the instruction count simulated before recording starts,
	// standing in for the paper's cache/structure warming.
	Warmup int
	// Core is the simulated CPU configuration.
	Core uarch.Config
	// Workers bounds the simulation worker pool: 0 uses every core, 1
	// forces the serial path. Telemetry is identical at any setting —
	// traces are independent and carry their own seeds — so Workers never
	// participates in cache keys.
	Workers int
}

// DefaultConfig returns the paper's recording parameters. Workers defaults
// to 0 (all cores); corpus simulation is parallel by default.
func DefaultConfig() Config {
	return Config{Interval: 10_000, Warmup: 50_000, Core: uarch.DefaultConfig()}
}

// IntervalRecord is one telemetry snapshot: the raw base-signal deltas for
// the interval (normalisation happens at dataset-build time).
type IntervalRecord struct {
	Base []float64
	IPC  float64
}

// TraceTelemetry holds both fixed-mode recordings of one trace. The trace
// is identified by names (not pointers) so recordings serialise cleanly.
type TraceTelemetry struct {
	App       string
	Benchmark string
	Workload  string
	TraceName string
	Seed      int64
	HighPerf  []IntervalRecord
	LowPower  []IntervalRecord
}

// Intervals returns the usable interval count (the shorter of the modes).
func (tt *TraceTelemetry) Intervals() int {
	n := len(tt.HighPerf)
	if len(tt.LowPower) < n {
		n = len(tt.LowPower)
	}
	return n
}

// Recording observability: traces simulated end to end and telemetry
// intervals captured (both modes), for run manifests.
var (
	tracesSimulated   = obs.NewCounter("dataset.traces_simulated")
	intervalsRecorded = obs.NewCounter("dataset.intervals_recorded")
)

// SimulateTrace records one trace in both cluster configurations. The
// trace is generated and probed once, into a private tape that both
// fixed-mode recordings replay and that is dropped on return, so a corpus
// build never holds more than its in-flight traces' tapes.
func SimulateTrace(tr *trace.Trace, cfg Config) *TraceTelemetry {
	tt := &TraceTelemetry{
		App:       tr.App.Name,
		Benchmark: tr.App.Benchmark,
		Workload:  tr.Workload,
		TraceName: tr.Name,
		Seed:      tr.Seed,
	}
	tape := uarch.RecordTape(cfg.Core, trace.NewStream(tr), 0)
	tt.HighPerf = recordMode(tape, cfg, uarch.ModeHighPerf)
	tt.LowPower = recordMode(tape, cfg, uarch.ModeLowPower)
	tracesSimulated.Inc()
	intervalsRecorded.Add(int64(len(tt.HighPerf) + len(tt.LowPower)))
	return tt
}

// recordMode replays the tape pinned to one mode and records every full
// interval after the warmup; a partial tail interval is discarded.
func recordMode(tape *uarch.Tape, cfg Config, mode uarch.Mode) []IntervalRecord {
	run := tape.Runner(mode, cfg.Warmup, cfg.Interval)
	var out []IntervalRecord
	for {
		delta, n := run.Next()
		if n < cfg.Interval {
			return out
		}
		out = append(out, IntervalRecord{
			Base: telemetry.ExtractBase(delta),
			IPC:  delta.IPC(),
		})
	}
}

// SimulateCorpus records every trace of a corpus, fanning traces out over
// cfg.Workers workers (0 = all cores) with retries and a generous per-trace
// timeout, so a wedged worker cannot hang a multi-hour corpus build. Each
// trace carries its own seed and simulates in isolated state, so the result
// — including any retried trace — is identical, record for record, at any
// worker count. Should the hardened fan-out still fail, the corpus is
// re-simulated serially: simulation is infallible apart from scheduling, so
// the serial pass always completes.
func SimulateCorpus(c *trace.Corpus, cfg Config) []*TraceTelemetry {
	out, err := parallel.MapOpt(len(c.Traces), parallel.Options{
		Workers: cfg.Workers,
		Retries: 2,
		Timeout: 30 * time.Minute,
	}, func(i int) (*TraceTelemetry, error) {
		return SimulateTrace(c.Traces[i], cfg), nil
	})
	if err == nil {
		return out
	}
	out = make([]*TraceTelemetry, len(c.Traces))
	for i := range c.Traces {
		out[i] = SimulateTrace(c.Traces[i], cfg)
	}
	return out
}

// SLA is the service-level agreement of Section 3.1: low-power mode must
// retain at least PSLA of high-performance IPC.
type SLA struct {
	PSLA float64
}

// Label returns 1 (gate) when low-power IPC meets the SLA threshold.
func (s SLA) Label(ipcHigh, ipcLow float64) int {
	if ipcLow >= s.PSLA*ipcHigh {
		return 1
	}
	return 0
}

// LabeledTrace is one trace's ordered prediction problem: X[t] holds the
// counter snapshot at interval t and Y[t] the ground-truth configuration
// for interval t+2 (so len(X) == Intervals()-2).
type LabeledTrace struct {
	App       string
	Benchmark string
	Workload  string
	TraceName string
	X         [][]float64
	Y         []int
}

// BuildOptions controls dataset construction.
type BuildOptions struct {
	// Mode selects which fixed-mode telemetry provides the counters (the
	// paper trains one model per mode).
	Mode uarch.Mode
	// SLA defines ground-truth labels.
	SLA SLA
	// Columns restricts the counter space to these indices of the counter
	// set (e.g. the 12 PF-selected counters); nil keeps all 936.
	Columns []int
	// GroupByBenchmark keys samples by benchmark name instead of workload
	// application name (used for SPEC leave-one-application-out splits).
	GroupByBenchmark bool
	// NoNormalize disables per-cycle normalisation (ablation; the paper
	// found normalisation improves accuracy).
	NoNormalize bool
	// WindowIntervals aggregates this many consecutive snapshots into each
	// sample ("sum over successive intervals and re-normalize"), training
	// models at their deployment granularity. Zero or one keeps the base
	// interval.
	WindowIntervals int
}

// BuildLabeled converts recorded telemetry into per-trace ordered samples
// at the requested prediction granularity: counters from window t predict
// the configuration for window t+2 (Figure 3).
func BuildLabeled(tel []*TraceTelemetry, cs *telemetry.CounterSet, opt BuildOptions) []*LabeledTrace {
	k := opt.WindowIntervals
	if k < 1 {
		k = 1
	}
	var out []*LabeledTrace
	for _, tt := range tel {
		n := tt.Intervals() / k
		if n < 3 {
			continue
		}
		src := tt.HighPerf
		if opt.Mode == uarch.ModeLowPower {
			src = tt.LowPower
		}
		lt := &LabeledTrace{
			App:       tt.App,
			Benchmark: tt.Benchmark,
			Workload:  tt.Workload,
			TraceName: tt.TraceName,
		}
		rng := rand.New(rand.NewSource(tt.Seed ^ 0x6e6f6973)) // per-trace noise stream
		for t := 0; t+2 < n; t++ {
			base := windowBase(src, t, k)
			full := cs.Snapshot(base, !opt.NoNormalize, rng)
			x := full
			if opt.Columns != nil {
				x = make([]float64, len(opt.Columns))
				for j, c := range opt.Columns {
					x[j] = full[c]
				}
			}
			lt.X = append(lt.X, x)
			hi := WindowIPC(tt.HighPerf, t+2, k)
			lo := WindowIPC(tt.LowPower, t+2, k)
			lt.Y = append(lt.Y, opt.SLA.Label(hi, lo))
		}
		out = append(out, lt)
	}
	return out
}

// windowBase sums the base vectors of window w (k intervals).
func windowBase(src []IntervalRecord, w, k int) []float64 {
	if k == 1 {
		return src[w].Base
	}
	bases := make([][]float64, 0, k)
	for i := w * k; i < (w+1)*k && i < len(src); i++ {
		bases = append(bases, src[i].Base)
	}
	return telemetry.Aggregate(bases)
}

// WindowIPC returns the aggregate IPC of prediction window w: equal
// instructions per interval, so the harmonic mean of interval IPCs.
func WindowIPC(src []IntervalRecord, w, k int) float64 {
	inv, n := 0.0, 0
	for i := w * k; i < (w+1)*k && i < len(src); i++ {
		if src[i].IPC > 0 {
			inv += 1 / src[i].IPC
			n++
		}
	}
	if n == 0 || inv == 0 {
		return 0
	}
	return float64(n) / inv
}

// Flatten concatenates labelled traces into an ml.Dataset. The App field
// is the application name (or benchmark, per options), the unit the
// paper's splits partition on.
func Flatten(lts []*LabeledTrace, groupByBenchmark bool) *ml.Dataset {
	d := &ml.Dataset{}
	for _, lt := range lts {
		key := lt.App
		if groupByBenchmark && lt.Benchmark != "" {
			key = lt.Benchmark
		}
		for i := range lt.X {
			d.X = append(d.X, lt.X[i])
			d.Y = append(d.Y, lt.Y[i])
			d.App = append(d.App, key)
		}
	}
	return d
}

// Build is the common path: label, select columns, flatten.
func Build(tel []*TraceTelemetry, cs *telemetry.CounterSet, opt BuildOptions) *ml.Dataset {
	return Flatten(BuildLabeled(tel, cs, opt), opt.GroupByBenchmark)
}

// CounterTraces expands telemetry into full per-trace counter matrices
// (intervals × counters) for the counter-selection pipeline.
func CounterTraces(tel []*TraceTelemetry, cs *telemetry.CounterSet, mode uarch.Mode) [][][]float64 {
	out := make([][][]float64, 0, len(tel))
	for _, tt := range tel {
		src := tt.HighPerf
		if mode == uarch.ModeLowPower {
			src = tt.LowPower
		}
		rng := rand.New(rand.NewSource(tt.Seed ^ 0x6e6f6973))
		tr := make([][]float64, len(src))
		for i, rec := range src {
			tr[i] = cs.Snapshot(rec.Base, true, rng)
		}
		out = append(out, tr)
	}
	return out
}

// OracleResidency returns the fraction of intervals whose ground truth is
// "gate" under the SLA — the ideal low-power residency of Figure 7.
func OracleResidency(tel []*TraceTelemetry, sla SLA) float64 {
	gate, total := 0, 0
	for _, tt := range tel {
		n := tt.Intervals()
		for t := 0; t < n; t++ {
			total++
			gate += sla.Label(tt.HighPerf[t].IPC, tt.LowPower[t].IPC)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gate) / float64(total)
}

// ByBenchmark groups telemetry by benchmark name.
func ByBenchmark(tel []*TraceTelemetry) map[string][]*TraceTelemetry {
	out := map[string][]*TraceTelemetry{}
	for _, tt := range tel {
		out[tt.Benchmark] = append(out[tt.Benchmark], tt)
	}
	return out
}

// validateConfig is used by the cache layer to describe configurations.
func (c Config) String() string {
	return fmt.Sprintf("interval=%d,warmup=%d", c.Interval, c.Warmup)
}
