package experiments

import (
	"bytes"
	"testing"

	"clustergate/internal/obs"
)

// TestObservabilityDoesNotPerturbOutput is the observability determinism
// guarantee: running experiments with a live run manifest (spans and
// counters recording) produces byte-identical experiment text output to
// an uninstrumented run, at workers=1 and workers=4. The shared cache
// directory additionally exercises the cache counters on the warm builds.
func TestObservabilityDoesNotPerturbOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("observability determinism env builds skipped in -short mode")
	}
	scale := QuickScale()
	scale.HDTRApps = 24
	scale.HDTRTracesPerApp = 1
	scale.HDTRInstrs = 200_000
	scale.SPECTracesPerWorkload = 1
	scale.SPECInstrs = 200_000
	scale.Folds = 2
	scale.MLPEpochs = 4
	scale.Fig4Sizes = []int{2, 8}

	cacheDir := t.TempDir()
	render := func(workers int, instrumented bool) ([]byte, *obs.Manifest) {
		t.Helper()
		var run *obs.Run
		if instrumented {
			run = obs.NewRun(obs.Info{Tool: "test", Seed: 7, Workers: workers})
		}
		obs.SetCurrent(run)
		defer obs.SetCurrent(nil)

		s := scale
		s.Workers = workers
		env, err := NewEnv(s, cacheDir, 7)
		if err != nil {
			t.Fatalf("workers=%d instrumented=%v: %v", workers, instrumented, err)
		}
		var buf bytes.Buffer
		PrintCorpus(&buf, env)
		rows, mean := Fig7Oracle(env)
		PrintFig7(&buf, rows, mean)
		pts, err := Fig4Diversity(env)
		if err != nil {
			t.Fatalf("workers=%d instrumented=%v fig4: %v", workers, instrumented, err)
		}
		PrintFig4(&buf, pts)
		return buf.Bytes(), run.Finish()
	}

	bare, _ := render(1, false)
	inst1, m1 := render(1, true)
	inst4, m4 := render(4, true)

	if !bytes.Equal(bare, inst1) {
		t.Errorf("instrumented workers=1 output differs from uninstrumented:\n%s\nvs\n%s", inst1, bare)
	}
	if !bytes.Equal(bare, inst4) {
		t.Errorf("instrumented workers=4 output differs from uninstrumented:\n%s\nvs\n%s", inst4, bare)
	}

	// The manifests must actually have recorded something: per-phase spans
	// with nonzero durations and simulation/fold counters.
	for _, m := range []*obs.Manifest{m1, m4} {
		if len(m.Spans) == 0 {
			t.Fatal("instrumented manifest has no spans")
		}
		names := map[string]float64{}
		var walk func(spans []*obs.SpanRecord)
		walk = func(spans []*obs.SpanRecord) {
			for _, s := range spans {
				names[s.Name] += s.WallMS
				walk(s.Children)
			}
		}
		walk(m.Spans)
		for _, want := range []string{"env", "fig4.diversity-sweep", "screen"} {
			if _, ok := names[want]; !ok {
				t.Errorf("manifest missing span %q (have %v)", want, names)
			}
		}
		if names["env"] <= 0 {
			t.Errorf("env span duration = %v ms, want > 0", names["env"])
		}
		if m.Counters["experiments.folds"] <= 0 {
			t.Errorf("folds counter = %d, want > 0", m.Counters["experiments.folds"])
		}
		if m.Counters["parallel.tasks"] <= 0 {
			t.Errorf("parallel.tasks counter = %d, want > 0", m.Counters["parallel.tasks"])
		}
	}
	// Warm builds hit the shared cache, so uarch instruction counts land in
	// the first manifest only; the cache counters must show the hits.
	if m4.Counters["dataset.cache.hits"] <= 0 {
		t.Errorf("warm run cache hits = %d, want > 0", m4.Counters["dataset.cache.hits"])
	}
	if m1.Counters["uarch.instructions"] != 0 && m1.Counters["dataset.cache.hits"] == 0 &&
		m1.Counters["dataset.cache.misses"] == 0 {
		t.Errorf("cold run recorded simulation but no cache activity: %v", m1.Counters)
	}
}

// TestObservabilityEventLogDeterminism extends the non-perturbation
// guarantee to the full recorder stack over the fleet-rollout study: with
// an event log, flight recorders, and latency histograms all live,
// experiment output stays byte-identical to an uninstrumented run at
// workers 1 and 4 — and the rendered event log itself is byte-identical
// across worker counts, because events carry only sim-derived values and
// are sorted at dump time.
func TestObservabilityEventLogDeterminism(t *testing.T) {
	render := func(workers int, instrumented bool) (stdout, events []byte, m *obs.Manifest) {
		t.Helper()
		e, g := fleetTestEnv(t, workers)
		e.Scale.FleetMachines = 12
		var run *obs.Run
		if instrumented {
			run = obs.NewRun(obs.Info{Tool: "test", Seed: 7, Workers: workers})
			obs.SetEventLog(obs.NewEventLog())
		}
		obs.SetCurrent(run)
		defer obs.SetCurrent(nil)
		defer obs.SetEventLog(nil)

		r, err := FleetRollout(e, g)
		if err != nil {
			t.Fatalf("workers=%d instrumented=%v: %v", workers, instrumented, err)
		}
		var buf bytes.Buffer
		PrintFleetRollout(&buf, r)
		if !instrumented {
			return buf.Bytes(), nil, nil
		}
		var ev bytes.Buffer
		if err := obs.CurrentEventLog().WriteJSONL(&ev); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), ev.Bytes(), run.Finish()
	}

	bare, _, _ := render(1, false)
	out1, ev1, m1 := render(1, true)
	out4, ev4, m4 := render(4, true)

	if !bytes.Equal(bare, out1) {
		t.Errorf("recorders-on workers=1 output differs from uninstrumented:\n%s\nvs\n%s", out1, bare)
	}
	if !bytes.Equal(bare, out4) {
		t.Errorf("recorders-on workers=4 output differs from uninstrumented:\n%s\nvs\n%s", out4, bare)
	}
	if !bytes.Equal(ev1, ev4) {
		t.Errorf("event log not byte-identical across worker counts:\n%s\nvs\n%s", ev1, ev4)
	}
	if len(ev1) == 0 {
		t.Fatal("instrumented rollout study produced an empty event log")
	}
	// The study must have exercised the interesting event paths: CRC
	// rejections (verified arms under 20%/45% corruption), ring soaks,
	// flashes and promotions (gated arms of a healthy image), and the halt
	// and rollback of the bad image.
	for _, kind := range []string{
		"fleet.crc.reject", "ctrlplane.ring.soak", "ctrlplane.ring.flash",
		"ctrlplane.ring.promote", "ctrlplane.ring.halt", "ctrlplane.rollback",
	} {
		if !bytes.Contains(ev1, []byte(`"kind":"`+kind+`"`)) {
			t.Errorf("event log missing %q events", kind)
		}
	}
	// The manifests must carry the latency histograms the study exercises.
	for _, m := range []*obs.Manifest{m1, m4} {
		for _, h := range []string{
			"fleet.flash.latency", "fleet.soak.duration",
			"parallel.task.latency", "uarch.execute.batch",
		} {
			if s, ok := m.Histograms[h]; !ok || s.Count <= 0 {
				t.Errorf("manifest missing histogram %q (have %v)", h, m.Histograms)
			}
		}
	}
}
