package experiments

import (
	"fmt"
	"io"

	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// UarchAblationRow reports one simulator-parameter variant's effect on the
// oracle gating opportunity — the sensitivity analysis behind DESIGN.md's
// "why gateability is not IPC-separable" table.
type UarchAblationRow struct {
	Label     string
	Residency float64 // oracle low-power residency under the 0.9 SLA
	MeanIPCHi float64
}

// UarchAblations re-simulates a sample of the test corpus under modified
// microarchitectural parameters: without the stream prefetcher
// (bandwidth-bound streaming stops being gateable), with unified MSHRs
// (the window-bound trap family stops being mode-sensitive), and with
// doubled DRAM bandwidth. The baseline row reads the sample's records
// from the environment, which recorded them under e.Cfg.
func UarchAblations(e *Env, tracesPerBenchmark int) ([]UarchAblationRow, error) {
	defer obs.Start("uarch.ablations").End()
	sample, baseline := ablationSample(e, tracesPerBenchmark)

	variants := []struct {
		label  string
		mutate func(*uarch.Config) // nil: e.Cfg, already recorded
	}{
		{"baseline", nil},
		{"no stream prefetcher", func(c *uarch.Config) {
			c.DisablePrefetch = true
		}},
		{"unified MSHR file (no per-cluster split)", func(c *uarch.Config) {
			c.MSHRs *= 2 // each cluster sees the full file
		}},
		{"2x DRAM bandwidth", func(c *uarch.Config) {
			c.MemGap /= 2
			if c.MemGap < 1 {
				c.MemGap = 1
			}
		}},
	}

	out, err := parallel.Map(e.Cfg.Workers, len(variants), func(i int) (UarchAblationRow, error) {
		v := variants[i]
		tel := baseline
		if v.mutate != nil {
			cfg := e.Cfg
			v.mutate(&cfg.Core)
			tel = dataset.SimulateCorpus(sample, cfg)
		}
		row := UarchAblationRow{Label: v.label}
		row.Residency = dataset.OracleResidency(tel, dataset.SLA{PSLA: 0.9})
		var ipcSum float64
		n := 0
		for _, tt := range tel {
			for _, rec := range tt.HighPerf {
				ipcSum += rec.IPC
				n++
			}
		}
		if n > 0 {
			row.MeanIPCHi = ipcSum / float64(n)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range out {
		e.logf("uarch-ablation %-38s residency=%.3f ipc=%.2f", row.Label, row.Residency, row.MeanIPCHi)
	}
	return out, nil
}

// ablationSample picks the first tracesPerBenchmark traces of every SPEC
// benchmark, with the environment's records of them.
func ablationSample(e *Env, tracesPerBenchmark int) (*trace.Corpus, []*dataset.TraceTelemetry) {
	counts := map[string]int{}
	sample := &trace.Corpus{Name: "ablate"}
	var tel []*dataset.TraceTelemetry
	for i, tr := range e.SPEC.Traces {
		if counts[tr.App.Benchmark] < tracesPerBenchmark {
			counts[tr.App.Benchmark]++
			sample.Traces = append(sample.Traces, tr)
			tel = append(tel, e.SPECTel[i])
		}
	}
	return sample, tel
}

// PrintUarchAblations renders the sensitivity table.
func PrintUarchAblations(w io.Writer, rows []UarchAblationRow) {
	fmt.Fprintln(w, "Simulator-parameter ablations (oracle residency @ P_SLA 0.9)")
	fmt.Fprintf(w, "  %-40s %-12s %s\n", "variant", "residency", "mean hi IPC")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-40s %10.1f%% %10.2f\n", r.Label, 100*r.Residency, r.MeanIPCHi)
	}
}
