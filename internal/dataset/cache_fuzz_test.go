package dataset

import (
	"bytes"
	"testing"

	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// fuzzCacheCorpus is FuzzReadCache's corpus: two short traces, two
// intervals each under testCfg.
func fuzzCacheCorpus() (*trace.Corpus, Config) {
	full := trace.BuildHDTR(trace.HDTRConfig{Apps: 2, MeanTracesPerApp: 1, InstrsPerTrace: 40_000, Seed: 21})
	return &trace.Corpus{Name: "fuzz-cache", Apps: full.Apps, Traces: full.Traces[:2]}, testCfg()
}

// FuzzReadCache feeds arbitrary bytes to the telemetry-cache reader: they
// must yield telemetry that fits the corpus, which its readers (dataset
// building, counter traces, oracle residency) consume without panicking,
// or a miss — never a panic. Seeds under testdata/fuzz/FuzzReadCache: a
// valid file for the corpus, a truncated copy, a wrong version, and the
// five ill-fitting edits of TestCacheRejectsMismatchedFiles applied to it.
func FuzzReadCache(f *testing.F) {
	c, cfg := fuzzCacheCorpus()
	key := cacheKey(c, cfg)
	cs := telemetry.NewStandardCounterSet()
	sla := SLA{PSLA: 0.9}
	f.Fuzz(func(t *testing.T, data []byte) {
		tel, ok := readCache(bytes.NewReader(data), c, key)
		if !ok {
			if tel != nil {
				t.Fatal("a miss returned telemetry")
			}
			return
		}
		if len(tel) != len(c.Traces) {
			t.Fatalf("hit holds %d traces, want %d", len(tel), len(c.Traces))
		}
		BuildLabeled(tel, cs, BuildOptions{Mode: uarch.ModeLowPower, SLA: sla, Columns: []int{0, 16, telemetry.NumBase - 1}})
		BuildLabeled(tel, cs, BuildOptions{Mode: uarch.ModeHighPerf, SLA: sla, WindowIntervals: 2})
		CounterTraces(tel, cs, uarch.ModeHighPerf)
		OracleResidency(tel, sla)
	})
}
