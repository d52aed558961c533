package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/trace"
)

// SweepConfig is one guardrail configuration in the tuning frontier.
type SweepConfig struct {
	// Key is a short metric-safe identifier; Label the printed description.
	Key, Label string
	// Guardrail is the swept configuration; nil deploys with the guardrail
	// off (the exposure ceiling every tuned config is judged against).
	Guardrail *core.Guardrail
}

// SweepConfigs returns the guardrail configurations the sweep deploys,
// bracketing the default on each axis: trip window (how many degraded
// intervals before the watchdog fires), backoff (how long gating stays
// forbidden after a trip), and saturation threshold (how much issue
// pressure counts as degradation).
func SweepConfigs() []SweepConfig {
	mk := func(sat float64, trip, backoff int) *core.Guardrail {
		return &core.Guardrail{
			SaturationThreshold: sat,
			ReadyWaitPerInstr:   0.5,
			TripIntervals:       trip,
			BackoffIntervals:    backoff,
		}
	}
	return []SweepConfig{
		{Key: "off", Label: "guardrail off", Guardrail: nil},
		{Key: "default", Label: "sat=0.90 trip=2 bo=8 (default)", Guardrail: mk(0.90, 2, 8)},
		{Key: "trip1-bo8", Label: "sat=0.90 trip=1 bo=8", Guardrail: mk(0.90, 1, 8)},
		{Key: "trip1-bo32", Label: "sat=0.90 trip=1 bo=32", Guardrail: mk(0.90, 1, 32)},
		{Key: "trip4-bo4", Label: "sat=0.90 trip=4 bo=4", Guardrail: mk(0.90, 4, 4)},
		{Key: "sat80", Label: "sat=0.80 trip=2 bo=8", Guardrail: mk(0.80, 2, 8)},
	}
}

// SweepRow is one configuration's measured frontier point.
type SweepRow struct {
	Key, Label string
	// Exposure[i] is the effective SLA-violation rate under plan i (same
	// order as GuardrailSweepResult.Classes).
	Exposure []float64
	// MeanExposure averages exposure across plans; PPW averages the mean
	// per-benchmark performance-per-watt gain across plans.
	MeanExposure, PPW float64
	Trips             int
	Injected          int64
}

// GuardrailSweepResult is the exp/guardrail-sweep report: a Table-5-style
// exposure/PPW frontier over guardrail configurations under every fault
// class, plus the firmware-image detector-coverage check.
type GuardrailSweepResult struct {
	Model string
	// Classes are the swept fault plans' primary classes, one per exposure
	// column.
	Classes []fault.Class
	Rows    []SweepRow
	// Traces is the SPEC subset size each arm deployed on.
	Traces int
	// WatchdogOps is the guarded controller's reserved watchdog cost per
	// prediction granularity.
	WatchdogOps int
	// DetectorFlips single-bit corruptions were applied to the sealed
	// firmware image at seeded positions; DetectorCaught of them were
	// rejected by the CRC envelope (CRC32 catches every single-bit error,
	// so the two must be equal).
	DetectorFlips, DetectorCaught int
	// Best is the Key of the swept configuration that dominates the
	// default: strictly lower mean exposure at no more than two points of
	// PPW cost, lowest exposure among qualifiers. Empty when none does.
	Best string
}

// GuardrailSweep deploys the controller over a deterministic SPEC subset
// under every fault plan × guardrail configuration and measures each
// arm's effective SLA exposure and PPW, mapping the guardrail tuning
// frontier the paper's "as permissively as possible" goal implies. It also
// sweeps seeded single-bit flips over the controller's sealed firmware
// image to confirm the CRC detector rejects every one.
func GuardrailSweep(e *Env, g *core.GatingController) (*GuardrailSweepResult, error) {
	defer obs.Start("guardrail.sweep").End()
	plans := AllFaultPlans(e.Seed)
	traces, tel := sweepSubset(e)
	res := &GuardrailSweepResult{
		Model:       g.Name,
		Traces:      len(traces),
		WatchdogOps: g.WatchdogOps,
	}
	for _, p := range plans {
		res.Classes = append(res.Classes, primaryClass(p))
	}

	// Fan the config×plan arms out through the worker pool: every arm is a
	// pure function of its index (config ci, plan pi), so the fan-out is
	// free to schedule them in any order. The fold below walks the result
	// slice in arm index order — config-major, plan-minor — so the summed
	// per-arm statistics (trips, injections, float exposure sums) are
	// byte-identical at any worker count.
	configs := SweepConfigs()
	arms, err := parallel.Map(e.Scale.Workers, len(configs)*len(plans),
		func(k int) (*corpusEffRSV, error) {
			sc, plan := configs[k/len(plans)], plans[k%len(plans)]
			inj, err := fault.NewInjector(plan)
			if err != nil {
				return nil, err
			}
			st, err := deployTracesFaulted(e, g, traces, tel, inj, sc.Guardrail)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep %s under %s: %w",
					sc.Key, primaryClass(plan), err)
			}
			return st, nil
		})
	if err != nil {
		return nil, err
	}
	for ci, sc := range configs {
		row := SweepRow{Key: sc.Key, Label: sc.Label}
		var expSum, ppwSum float64
		for pi := range plans {
			st := arms[ci*len(plans)+pi]
			row.Exposure = append(row.Exposure, st.rsv())
			expSum += st.rsv()
			ppwSum += st.ppw()
			row.Trips += st.trips
			row.Injected += st.injected
		}
		row.MeanExposure = expSum / float64(len(plans))
		row.PPW = ppwSum / float64(len(plans))
		res.Rows = append(res.Rows, row)
	}

	res.DetectorFlips, res.DetectorCaught, err = detectorCoverage(g, e.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: detector coverage: %w", err)
	}
	res.Best = dominating(res.Rows)
	return res, nil
}

// sweepSubset selects a deterministic SPEC subset for the sweep: one trace
// per benchmark per round, in corpus order, up to Scale.SweepTraces (zero
// uses the whole corpus). The sweep redeploys every trace once per
// config×plan arm, so the subset keeps quick runs tractable while still
// covering every benchmark.
func sweepSubset(e *Env) ([]*trace.Trace, []*dataset.TraceTelemetry) {
	limit := e.Scale.SweepTraces
	if limit <= 0 || limit >= len(e.SPEC.Traces) {
		return e.SPEC.Traces, e.SPECTel
	}
	byBench := map[string][]int{}
	var order []string
	for i, tr := range e.SPEC.Traces {
		b := tr.App.Benchmark
		if _, ok := byBench[b]; !ok {
			order = append(order, b)
		}
		byBench[b] = append(byBench[b], i)
	}
	var idx []int
	for round := 0; len(idx) < limit; round++ {
		added := false
		for _, b := range order {
			if round < len(byBench[b]) && len(idx) < limit {
				idx = append(idx, byBench[b][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	sort.Ints(idx)
	traces := make([]*trace.Trace, len(idx))
	tel := make([]*dataset.TraceTelemetry, len(idx))
	for j, i := range idx {
		traces[j] = e.SPEC.Traces[i]
		tel[j] = e.SPECTel[i]
	}
	return traces, tel
}

// detectorCoverage seals the controller into its firmware image and sweeps
// seeded single-bit flips over the sealed bytes, counting how many the CRC
// envelope rejects at load.
func detectorCoverage(g *core.GatingController, seed int64) (flips, caught int, err error) {
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		return 0, 0, err
	}
	img := buf.Bytes()
	const n = 2000
	for k := 0; k < n; k++ {
		corrupt := append([]byte(nil), img...)
		fault.FlipBits(corrupt, seed+int64(k), 1)
		flips++
		if _, err := core.LoadController(bytes.NewReader(corrupt)); err != nil {
			caught++
		}
	}
	return flips, caught, nil
}

// dominating returns the Key of the swept configuration that dominates the
// default on exposure — strictly lower mean exposure at a PPW cost of at
// most two points — choosing the lowest exposure among qualifiers.
func dominating(rows []SweepRow) string {
	var def *SweepRow
	for i := range rows {
		if rows[i].Key == "default" {
			def = &rows[i]
		}
	}
	if def == nil {
		return ""
	}
	best := ""
	bestExp := def.MeanExposure
	for i := range rows {
		r := &rows[i]
		if r.Key == "default" || r.Key == "off" {
			continue
		}
		if r.MeanExposure < bestExp && r.PPW >= def.PPW-0.02 {
			best = r.Key
			bestExp = r.MeanExposure
		}
	}
	return best
}

// shortClass abbreviates a fault class for the frontier's column headers.
func shortClass(c fault.Class) string {
	switch c {
	case fault.TelemetryDrop:
		return "drop"
	case fault.CounterFreeze:
		return "freeze"
	case fault.CounterGlitch:
		return "glitch"
	case fault.PredictionPin:
		return "pin"
	case fault.TraceOutage:
		return "outage"
	case fault.DRAMDerate:
		return "derate"
	}
	return string(c)
}

// PrintGuardrailSweep renders the frontier.
func PrintGuardrailSweep(w io.Writer, r *GuardrailSweepResult) {
	fmt.Fprintf(w, "Guardrail tuning frontier (%s): effective SLA exposure by fault class, %d traces\n",
		r.Model, r.Traces)
	fmt.Fprintf(w, "  %-30s", "config")
	for _, c := range r.Classes {
		fmt.Fprintf(w, " %8s", shortClass(c))
	}
	fmt.Fprintf(w, " %8s %8s %6s\n", "mean", "PPW", "trips")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-30s", row.Label)
		for _, x := range row.Exposure {
			fmt.Fprintf(w, " %7.2f%%", 100*x)
		}
		fmt.Fprintf(w, " %7.2f%% %+7.1f%% %6d\n", 100*row.MeanExposure, 100*row.PPW, row.Trips)
	}
	if r.Best != "" {
		fmt.Fprintf(w, "  dominating: %s (lower mean exposure than default at <=2pt PPW cost)\n", r.Best)
	} else {
		fmt.Fprintf(w, "  dominating: none\n")
	}
	fmt.Fprintf(w, "  firmware CRC detector: %d/%d seeded single-bit flips rejected\n",
		r.DetectorCaught, r.DetectorFlips)
	fmt.Fprintf(w, "  watchdog reserve: %d ops per prediction granularity\n", r.WatchdogOps)
}

// BuildGuardedBestRF trains the Best RF controller sized for guarded
// deployment: the watchdog's firmware cost is reserved before granularity
// selection, so model inference and the guardrail fit the microcontroller
// together (the guarded build lands one granularity step coarser than the
// bare one).
func BuildGuardedBestRF(e *Env) (*core.GatingController, error) {
	defer obs.Start("build.guarded-best-rf").End()
	in := e.buildInputs(0.9)
	in.Guardrail = true
	return core.BuildBestRF(in)
}
