package experiments

import (
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/surrogate"
)

// TestAblationBaselineMatchesResimulation holds the uarch ablations'
// baseline, which reads the environment's records of its sample, to a
// fresh recording of that sample under e.Cfg. It covers an environment
// built cold and one rebuilt from the warm telemetry cache, which is
// where paperbench's quick runs read their records. The rebuilt
// environment then runs UarchAblations under a surrogate oracle, which
// must leave surrogate.fallback alone: the ablations record and never
// deploy.
func TestAblationBaselineMatchesResimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("environment build skipped in -short mode")
	}
	// A small environment that NewEnv still builds through its full path
	// (corpora, cached telemetry, counter selection).
	scale := Scale{
		Name:     "ablation-test",
		HDTRApps: 12, HDTRTracesPerApp: 1, HDTRInstrs: 100_000,
		SPECTracesPerWorkload: 1, SPECInstrs: 100_000,
		Folds: 2, MLPEpochs: 2,
	}
	dir := t.TempDir()
	for _, build := range []string{"cold", "warm"} {
		hits := obs.CounterValue("dataset.cache.hits")
		e, err := NewEnv(scale, dir, 5)
		if err != nil {
			t.Fatalf("%s env: %v", build, err)
		}
		if warm := obs.CounterValue("dataset.cache.hits") > hits; warm != (build == "warm") {
			t.Fatalf("%s env: read the cache = %v", build, warm)
		}
		sample, got := ablationSample(e, 2)
		want := dataset.SimulateCorpus(sample, e.Cfg)
		if len(got) != len(want) {
			t.Fatalf("%s env: %d baseline records for %d sampled traces", build, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s env: baseline record %d (%s) differs from re-simulating %s",
					build, i, got[i].TraceName, want[i].TraceName)
			}
		}

		if build == "warm" {
			e.Sim = surrogate.NewOracle(nil, core.SimSurrogate, surrogate.OracleOptions{})
			before := obs.CounterValue("surrogate.fallback")
			rows, err := UarchAblations(e, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 4 || rows[0].Label != "baseline" {
				t.Fatalf("ablation rows = %+v", rows)
			}
			if d := obs.CounterValue("surrogate.fallback") - before; d != 0 {
				t.Errorf("UarchAblations under %s moved surrogate.fallback by %d", core.SimSurrogate, d)
			}
		}
	}
}
