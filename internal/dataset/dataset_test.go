package dataset

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

func smallCorpus(t *testing.T) *trace.Corpus {
	t.Helper()
	return trace.BuildHDTR(trace.HDTRConfig{
		Apps: 12, MeanTracesPerApp: 2, InstrsPerTrace: 100_000, Seed: 5,
	})
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	return cfg
}

func TestSimulateTraceShape(t *testing.T) {
	c := smallCorpus(t)
	tt := SimulateTrace(c.Traces[0], testCfg())
	// 100k instructions − 20k warmup → 8 full intervals.
	if got := len(tt.HighPerf); got != 8 {
		t.Errorf("high-perf intervals = %d, want 8", got)
	}
	if got := len(tt.LowPower); got != 8 {
		t.Errorf("low-power intervals = %d, want 8", got)
	}
	for _, rec := range tt.HighPerf {
		if len(rec.Base) != telemetry.NumBase {
			t.Fatalf("base vector = %d signals, want %d", len(rec.Base), telemetry.NumBase)
		}
		if rec.IPC <= 0 || rec.IPC > 8 {
			t.Fatalf("interval IPC = %v, implausible", rec.IPC)
		}
	}
	if tt.App == "" || tt.TraceName == "" {
		t.Error("trace identity not recorded")
	}
}

func TestSimulateTraceModesDiffer(t *testing.T) {
	c := smallCorpus(t)
	tt := SimulateTrace(c.Traces[0], testCfg())
	same := true
	for i := range tt.HighPerf {
		if tt.HighPerf[i].IPC != tt.LowPower[i].IPC {
			same = false
			break
		}
	}
	if same {
		t.Error("both modes produced identical IPC everywhere; mode plumbing broken")
	}
	// Low-power IPC can never exceed its 4-wide bound.
	for i, rec := range tt.LowPower {
		if rec.IPC > 4.01 {
			t.Errorf("low-power interval %d IPC = %v > 4", i, rec.IPC)
		}
	}
}

func TestSLALabel(t *testing.T) {
	sla := SLA{PSLA: 0.9}
	if sla.Label(2.0, 1.9) != 1 {
		t.Error("1.9 vs 2.0 meets a 90% SLA")
	}
	if sla.Label(2.0, 1.7) != 0 {
		t.Error("1.7 vs 2.0 violates a 90% SLA")
	}
	loose := SLA{PSLA: 0.7}
	if loose.Label(2.0, 1.5) != 1 {
		t.Error("1.5 vs 2.0 meets a 70% SLA")
	}
}

func TestBuildLabeledAlignment(t *testing.T) {
	c := smallCorpus(t)
	tel := SimulateCorpus(c, testCfg())
	cs := telemetry.NewStandardCounterSet()
	lts := BuildLabeled(tel, cs, BuildOptions{Mode: uarch.ModeLowPower, SLA: SLA{PSLA: 0.9}})
	if len(lts) != len(tel) {
		t.Fatalf("labelled traces = %d, want %d", len(lts), len(tel))
	}
	for i, lt := range lts {
		wantLen := tel[i].Intervals() - 2
		if len(lt.X) != wantLen || len(lt.Y) != wantLen {
			t.Fatalf("trace %d: %d samples, want %d (t+2 labelling)", i, len(lt.X), wantLen)
		}
		// Cross-check one label against the raw IPCs.
		sla := SLA{PSLA: 0.9}
		for tIdx := range lt.Y {
			want := sla.Label(tel[i].HighPerf[tIdx+2].IPC, tel[i].LowPower[tIdx+2].IPC)
			if lt.Y[tIdx] != want {
				t.Fatalf("trace %d label %d = %d, want %d", i, tIdx, lt.Y[tIdx], want)
			}
		}
	}
}

func TestBuildColumnsSelection(t *testing.T) {
	c := smallCorpus(t)
	tel := SimulateCorpus(c, testCfg())[:3]
	cs := telemetry.NewStandardCounterSet()
	cols := []int{0, 5, 16}
	d := Build(tel, cs, BuildOptions{Mode: uarch.ModeHighPerf, SLA: SLA{PSLA: 0.9}, Columns: cols})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.X[0]) != 3 {
		t.Errorf("features = %d, want 3", len(d.X[0]))
	}
}

func TestBuildNormalizationToggle(t *testing.T) {
	c := smallCorpus(t)
	tel := SimulateCorpus(c, testCfg())[:2]
	cs := telemetry.NewStandardCounterSet()
	instrIdx := cs.Index("instructions")
	norm := Build(tel, cs, BuildOptions{Mode: uarch.ModeHighPerf, SLA: SLA{PSLA: 0.9}, Columns: []int{instrIdx}})
	raw := Build(tel, cs, BuildOptions{Mode: uarch.ModeHighPerf, SLA: SLA{PSLA: 0.9}, Columns: []int{instrIdx}, NoNormalize: true})
	// Normalised instructions = IPC (≤8); raw = 10,000 per interval.
	if norm.X[0][0] > 8.1 {
		t.Errorf("normalised instructions = %v, want IPC-scale", norm.X[0][0])
	}
	if raw.X[0][0] != 10_000 {
		t.Errorf("raw instructions = %v, want 10000", raw.X[0][0])
	}
}

func TestFlattenGroupKeys(t *testing.T) {
	lts := []*LabeledTrace{
		{App: "a/wl0", Benchmark: "bench1", X: [][]float64{{1}}, Y: []int{1}},
		{App: "a/wl1", Benchmark: "bench1", X: [][]float64{{2}}, Y: []int{0}},
	}
	byApp := Flatten(lts, false)
	if byApp.App[0] != "a/wl0" || byApp.App[1] != "a/wl1" {
		t.Errorf("by-app keys = %v", byApp.App)
	}
	byBench := Flatten(lts, true)
	if byBench.App[0] != "bench1" || byBench.App[1] != "bench1" {
		t.Errorf("by-benchmark keys = %v", byBench.App)
	}
}

func TestOracleResidencyBounds(t *testing.T) {
	c := smallCorpus(t)
	tel := SimulateCorpus(c, testCfg())
	r := OracleResidency(tel, SLA{PSLA: 0.9})
	if r < 0 || r > 1 {
		t.Fatalf("residency = %v", r)
	}
	// A 70% SLA can only increase residency.
	if loose := OracleResidency(tel, SLA{PSLA: 0.7}); loose < r {
		t.Errorf("loosening the SLA reduced residency: %v → %v", r, loose)
	}
}

func TestDeterministicTelemetry(t *testing.T) {
	c := smallCorpus(t)
	a := SimulateTrace(c.Traces[0], testCfg())
	b := SimulateTrace(c.Traces[0], testCfg())
	for i := range a.HighPerf {
		if a.HighPerf[i].IPC != b.HighPerf[i].IPC {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := trace.BuildHDTR(trace.HDTRConfig{Apps: 6, MeanTracesPerApp: 1, InstrsPerTrace: 60_000, Seed: 9})
	cfg := testCfg()

	first, err := SimulateCorpusCached(c, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A cache file exists now.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("cache files = %d, want 1", len(entries))
	}

	second, err := SimulateCorpusCached(c, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("cached load differs: %d vs %d traces", len(first), len(second))
	}
	for i := range first {
		if first[i].TraceName != second[i].TraceName {
			t.Fatal("cached trace identity mismatch")
		}
		for j := range first[i].HighPerf {
			if first[i].HighPerf[j].IPC != second[i].HighPerf[j].IPC {
				t.Fatal("cached IPC mismatch")
			}
		}
	}
}

func TestCacheCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	c := trace.BuildHDTR(trace.HDTRConfig{Apps: 6, MeanTracesPerApp: 1, InstrsPerTrace: 60_000, Seed: 9})
	cfg := testCfg()
	if _, err := SimulateCorpusCached(c, cfg, dir); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	path := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tel, err := SimulateCorpusCached(c, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tel) != len(c.Traces) {
		t.Fatal("corrupt cache not regenerated")
	}
}

// TestCacheRejectsMismatchedFiles: a cache file with the right version and
// key whose telemetry does not fit the corpus counts as a miss, and the
// corpus is re-simulated and the file overwritten.
func TestCacheRejectsMismatchedFiles(t *testing.T) {
	dir := t.TempDir()
	c := trace.BuildHDTR(trace.HDTRConfig{Apps: 6, MeanTracesPerApp: 1, InstrsPerTrace: 60_000, Seed: 9})
	cfg := testCfg()
	want := SimulateCorpus(c, cfg)
	if _, err := SimulateCorpusCached(c, cfg, dir); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	path := filepath.Join(dir, entries[0].Name())
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Traces) < 3 {
		t.Fatalf("corpus has %d traces; the edits need 3", len(c.Traces))
	}
	for _, tc := range []struct {
		name string
		edit func(*cacheFile)
	}{
		{"record missing", func(f *cacheFile) { f.Traces = f.Traces[:len(f.Traces)-1] }},
		{"short base vector", func(f *cacheFile) { f.Traces[0].HighPerf[0].Base = f.Traces[0].HighPerf[0].Base[:3] }},
		{"ragged modes", func(f *cacheFile) { f.Traces[1].LowPower = f.Traces[1].LowPower[1:] }},
		{"other trace name", func(f *cacheFile) { f.Traces[2].TraceName += "-x" }},
		{"other trace seed", func(f *cacheFile) { f.Traces[2].Seed++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f cacheFile
			if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&f); err != nil {
				t.Fatal(err)
			}
			tc.edit(&f)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			misses := ReadCacheStats().Misses
			got, err := SimulateCorpusCached(c, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("mismatched cache file served instead of the simulated corpus")
			}
			if n := ReadCacheStats().Misses - misses; n != 1 {
				t.Errorf("%d cache misses, want 1", n)
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, good) {
				t.Errorf("cache file not overwritten with the simulated corpus (read error %v)", err)
			}
		})
	}
}

func TestCacheDisabled(t *testing.T) {
	c := trace.BuildHDTR(trace.HDTRConfig{Apps: 3, MeanTracesPerApp: 1, InstrsPerTrace: 60_000, Seed: 9})
	tel, err := SimulateCorpusCached(c, testCfg(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tel) != len(c.Traces) {
		t.Fatal("uncached simulation incomplete")
	}
}

func TestByBenchmark(t *testing.T) {
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 40_000, Seed: 3})
	// Only simulate a few traces for speed.
	sub := &trace.Corpus{Name: "spec-sub", Apps: spec.Apps[:4], Traces: spec.Traces[:6]}
	tel := SimulateCorpus(sub, testCfg())
	groups := ByBenchmark(tel)
	if len(groups) == 0 {
		t.Fatal("no benchmark groups")
	}
	for name, g := range groups {
		if name == "" {
			t.Error("empty benchmark name in groups")
		}
		for _, tt := range g {
			if tt.Benchmark != name {
				t.Fatal("grouping mismatch")
			}
		}
	}
}

func TestBuildLabeledWindowed(t *testing.T) {
	c := smallCorpus(t)
	tel := SimulateCorpus(c, testCfg())[:3]
	cs := telemetry.NewStandardCounterSet()
	opts := BuildOptions{Mode: uarch.ModeLowPower, SLA: SLA{PSLA: 0.9}, WindowIntervals: 4}
	lts := BuildLabeled(tel, cs, opts)
	for i, lt := range lts {
		wantWindows := tel[i].Intervals()/4 - 2
		if wantWindows < 1 {
			continue
		}
		if len(lt.X) != wantWindows {
			t.Fatalf("trace %d windows = %d, want %d", i, len(lt.X), wantWindows)
		}
	}
	// Windowed labels must match harmonic-mean IPC aggregation.
	tt := tel[0]
	if tt.Intervals()/4 >= 3 {
		hi := WindowIPC(tt.HighPerf, 2, 4)
		lo := WindowIPC(tt.LowPower, 2, 4)
		want := (SLA{PSLA: 0.9}).Label(hi, lo)
		if lts[0].Y[0] != want {
			t.Errorf("window label = %d, want %d", lts[0].Y[0], want)
		}
	}
}

func TestWindowIPCHarmonic(t *testing.T) {
	src := []IntervalRecord{{IPC: 2}, {IPC: 4}}
	// Equal instruction counts: harmonic mean of 2 and 4 = 2.667.
	got := WindowIPC(src, 0, 2)
	if got < 2.66 || got > 2.67 {
		t.Errorf("harmonic window IPC = %v, want 8/3", got)
	}
	if WindowIPC(src, 5, 2) != 0 {
		t.Error("out-of-range window should be 0")
	}
}
