package experiments

import "testing"

func TestCorpusForBenchmarkAlignment(t *testing.T) {
	e := quickEnv(t)
	sub, tel := corpusForBenchmark(e, "654.roms_s")
	if len(sub.Traces) == 0 || len(sub.Traces) != len(tel) {
		t.Fatalf("roms subset: %d traces, %d telemetry", len(sub.Traces), len(tel))
	}
	for i, tr := range sub.Traces {
		if tr.App.Benchmark != "654.roms_s" {
			t.Fatalf("trace %d from %s", i, tr.App.Benchmark)
		}
		if tr.Name != tel[i].TraceName {
			t.Fatalf("trace %d misaligned with telemetry", i)
		}
	}
}

func TestBuildInputsForEnvDefaults(t *testing.T) {
	e := quickEnv(t)
	in := e.buildInputs(0.8)
	if in.SLA.PSLA != 0.8 {
		t.Errorf("PSLA = %v, want 0.8", in.SLA.PSLA)
	}
	if len(in.Columns) != len(e.PFColumns) {
		t.Error("inputs should carry the PF columns")
	}
	if in.Interval != e.Cfg.Interval {
		t.Error("inputs should carry the recording interval")
	}
}
