package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"clustergate/internal/experiments"
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

// TestRunRejectsUnknownExperiment: a misspelt -exp name fails before the
// env is built, naming the unknown experiment and the known ones.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	scale := tinyScale()
	opts := benchOpts{
		scaleName: "tiny", scaleOverride: &scale, cacheDir: t.TempDir(),
		exps: "corpus,fgi7", quiet: true,
	}
	err := run(opts, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"fgi7"`) || !strings.Contains(err.Error(), "fig7") {
		t.Fatalf("got %v, want an error naming fgi7 and the known experiments", err)
	}
}
