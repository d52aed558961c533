package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clustergate/internal/experiments"
	"clustergate/internal/obs"
)

// tinyScale is a minutes-not-hours scale for end-to-end runs.
func tinyScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Name = "tiny"
	s.HDTRApps = 24
	s.HDTRTracesPerApp = 1
	s.HDTRInstrs = 200_000
	s.SPECTracesPerWorkload = 1
	s.SPECInstrs = 200_000
	s.Folds = 2
	s.MLPEpochs = 4
	s.Fig4Sizes = []int{2, 8}
	return s
}

// TestCheckpointResumeByteIdentical is the crash-safety acceptance test:
// a run killed mid-sweep and rerun with the same -checkpoint directory
// produces stdout byte-identical to an uninterrupted run, and a fully
// checkpointed rerun replays everything verbatim.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end paperbench runs skipped in -short mode")
	}
	scale := tinyScale()
	base := benchOpts{
		scaleName: "tiny", cacheDir: t.TempDir(), seed: 7,
		exps: "corpus,fig7,fleet-rollout", quiet: true,
		scaleOverride: &scale,
	}

	// Reference: uninterrupted, no checkpointing.
	var ref bytes.Buffer
	if err := run(base, &ref, io.Discard); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ref.Len() == 0 {
		t.Fatal("reference run produced no output")
	}

	// Crash after two completed experiments.
	ckptDir := t.TempDir()
	crash := base
	crash.checkpointDir = ckptDir
	crash.failAfter = 2
	var partial bytes.Buffer
	err := run(crash, &partial, io.Discard)
	if !errors.Is(err, errInjectedCrash) {
		t.Fatalf("crash run: got %v, want errInjectedCrash", err)
	}
	if partial.Len() == 0 || partial.Len() >= ref.Len() {
		t.Fatalf("crashed run wrote %d bytes, want a strict nonempty prefix of %d", partial.Len(), ref.Len())
	}
	if !bytes.HasPrefix(ref.Bytes(), partial.Bytes()) {
		t.Fatalf("crashed output is not a prefix of the reference:\n%s\nvs\n%s", partial.String(), ref.String())
	}

	// Resume: completed experiments replay, the rest run fresh.
	resume := base
	resume.checkpointDir = ckptDir
	var resumed bytes.Buffer
	if err := run(resume, &resumed, io.Discard); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(resumed.Bytes(), ref.Bytes()) {
		t.Errorf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", resumed.String(), ref.String())
	}

	// Rerun with everything checkpointed: pure replay, still identical.
	var replayed bytes.Buffer
	if err := run(resume, &replayed, io.Discard); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !bytes.Equal(replayed.Bytes(), ref.Bytes()) {
		t.Errorf("replayed output differs from uninterrupted run:\n%s\nvs\n%s", replayed.String(), ref.String())
	}
}

// TestRunRejectsUnknownScale pins the flag-validation path of run.
func TestRunRejectsUnknownScale(t *testing.T) {
	err := run(benchOpts{scaleName: "nope", exps: "corpus", quiet: true}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunRejectsUnknownExperiment: a misspelt -exp name, or a step's,
// fails before the env is built, naming it and the known experiments.
// The table names each entry once; -exp all selects every entry not
// opt-in, in table order, and a step runs ahead of what it feeds.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	scale := tinyScale()
	for _, exps := range []string{"corpus,fgi7", "fig8-deploy"} {
		opts := benchOpts{
			scaleName: "tiny", scaleOverride: &scale, cacheDir: t.TempDir(),
			exps: exps, quiet: true,
		}
		err := run(opts, io.Discard, io.Discard)
		name := strings.TrimPrefix(exps, "corpus,")
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "fig7") {
			t.Fatalf("-exp %s: got %v, want an error naming %s and the known experiments", exps, err, name)
		}
	}

	seen := map[string]bool{}
	var notOptIn []*experiment
	for i := range table {
		x := &table[i]
		if seen[x.name] {
			t.Errorf("experiment %q is in the table twice", x.name)
		}
		seen[x.name] = true
		if !x.optIn {
			notOptIn = append(notOptIn, x)
		}
	}
	if all, err := plan("all"); err != nil || !slices.Equal(all, notOptIn) {
		t.Errorf("-exp all selects %v (err %v), want every entry not opt-in in table order", names(all), err)
	}
	if got, err := plan("fig9,corpus"); err != nil || !slices.Equal(names(got), []string{"corpus", "fig8-deploy", "fig9"}) {
		t.Errorf("-exp fig9,corpus selects %v (err %v), want [corpus fig8-deploy fig9]", names(got), err)
	}
}

// names lists the entries' names in order.
func names(xs []*experiment) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.name)
	}
	return out
}

// TestRunWritesSelectedArtifacts: -artifacts DIR receives exactly the
// artifacts of the selected experiments under their BENCH file names,
// each schema-tagged one recognised by obs.Detect; with -artifacts unset
// nothing is written.
func TestRunWritesSelectedArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end paperbench runs skipped in -short mode")
	}
	scale := tinyScale()
	dir := t.TempDir()
	opts := benchOpts{
		scaleName: "tiny", scaleOverride: &scale, cacheDir: t.TempDir(), seed: 7,
		exps: "corpus,fleet-rollout,ctrlplane-churn", quiet: true, artifactsDir: dir,
	}
	if err := run(opts, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := []string{"BENCH_ctrlplane_churn.json", "BENCH_fleet_rollout.json"}; !slices.Equal(got, want) {
		t.Fatalf("artifacts %v, want %v", got, want)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_ctrlplane_churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if s := obs.Detect(doc); s == nil || s.Name != "ctrlplane-churn-bench" {
		t.Errorf("BENCH_ctrlplane_churn.json detected as %v, want ctrlplane-churn-bench", s)
	}

	// Unset, nothing lands in the working directory either.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if err := os.Chdir(empty); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	opts.exps, opts.artifactsDir = "fleet-rollout", ""
	if err := run(opts, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Errorf("a run without -artifacts wrote %d files", len(entries))
	}
}
