package ctrlplane

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
)

// interruptResume runs the campaign for kill ticks, abandons the service
// (Close, as a crash would), then builds a fresh Service from resumeCfg —
// same checkpoint path — and drives it to completion, returning the
// resumed run's report and event log. The partial run gets no event log
// on purpose: a resume must reconstruct history from the checkpoint's
// durable backlog alone.
func interruptResume(t *testing.T, cfg, resumeCfg Config, img []byte, wl fleet.Workload, kill int) (*Report, []byte) {
	t.Helper()
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kill && !s.Done(); i++ {
		s.Tick()
	}
	killedAt := s.tick
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("no checkpoint after %d ticks: %v", killedAt, err)
	}

	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	s2, err := New(resumeCfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	if s2.tick != killedAt {
		t.Fatalf("resume started at tick %d, checkpoint was at tick %d", s2.tick, killedAt)
	}
	rep, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestCheckpointResumeByteIdentical locks the durability contract on a
// reliable fleet: kill the campaign at several tick epochs, resume from
// the checkpoint, and the final Report and event log are byte-identical
// to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	base := testConfig(400)
	repU, evU := runCampaign(t, base, img, wl)

	for _, kill := range []int{1, 4, 8} {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		rep, ev := interruptResume(t, cfg, cfg, img, wl, kill)
		if !reflect.DeepEqual(repU, rep) {
			t.Errorf("kill@%d: resumed report diverges:\n%+v\nvs\n%+v", kill, repU, rep)
		}
		if !bytes.Equal(evU, ev) {
			t.Errorf("kill@%d: resumed event log diverges from the uninterrupted run", kill)
		}
	}
}

// TestCheckpointResumeUnderChurn is the same contract with the fault plan
// active — leases, catch-up worklists, and in-flight delayed telemetry
// must all survive the crash. The final resume also changes the ingest
// shard count: snapshots are shard-shape-free and restore re-partitions.
func TestCheckpointResumeUnderChurn(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	base := churnConfig(400)
	repU, evU := runCampaign(t, base, img, wl)

	for _, kill := range []int{3, 7} {
		cfg := base
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		rep, ev := interruptResume(t, cfg, cfg, img, wl, kill)
		if !reflect.DeepEqual(repU, rep) {
			t.Errorf("kill@%d: resumed report diverges under churn:\n%+v\nvs\n%+v", kill, repU, rep)
		}
		if !bytes.Equal(evU, ev) {
			t.Errorf("kill@%d: resumed event log diverges under churn", kill)
		}
	}

	cfg := base
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	resume := cfg
	resume.Shards = 2
	rep, ev := interruptResume(t, cfg, resume, img, wl, 5)
	if !bytes.Equal(evU, ev) {
		t.Error("resume at a different shard count diverged the event log")
	}
	nu, nr := *repU, *rep
	nu.Shards, nr.Shards, nu.Batches, nr.Batches = 0, 0, 0, 0
	if !reflect.DeepEqual(&nu, &nr) {
		t.Errorf("resume at a different shard count diverged the report:\n%+v\nvs\n%+v", &nu, &nr)
	}
}

// TestCheckpointMismatchStartsFresh: a checkpoint from different campaign
// inputs — another seed, another gate, or no gate at all — or a corrupt
// file is ignored: the campaign starts fresh instead of resuming someone
// else's state or failing.
func TestCheckpointMismatchStartsFresh(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := testConfig(200)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")

	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	s.Tick()
	s.Tick()
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}

	reseeded, regated, ungated := cfg, cfg, cfg
	reseeded.Seed = 12
	regated.Gate.MaxMisgateRate = 0.35
	ungated.Gate = fleet.GatePolicy{}
	for name, other := range map[string]Config{"seed": reseeded, "gate": regated, "gate (none)": ungated} {
		s2, err := New(other, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		if s2.tick != 0 {
			t.Errorf("checkpoint of a campaign with a different %s resumed at tick %d", name, s2.tick)
		}
		s2.Close()
	}

	if err := os.WriteFile(cfg.CheckpointPath, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	if s3.tick != 0 {
		t.Errorf("corrupt checkpoint resumed at tick %d", s3.tick)
	}
	s3.Close()
}

// outOfRangeEdits turn a campaign's checkpoint into one that matches its
// fingerprint but holds indices the campaign cannot hold.
var outOfRangeEdits = []struct {
	name string
	edit func(*campaignSnap)
}{
	{"extra ring accumulator", func(c *campaignSnap) { c.RingAccums = append(c.RingAccums, accumSnap{}) }},
	{"negative health machine", func(c *campaignSnap) { c.Health[0].Machine = -3 }},
	{"negative future machine", func(c *campaignSnap) { c.Future[0].Machine = -3 }},
	{"future ring out of range", func(c *campaignSnap) { c.Future[0].Ring = 99 }},
}

// fiveTickCheckpoint runs cfg's campaign for five ticks and returns the
// checkpoint it leaves at cfg.CheckpointPath.
func fiveTickCheckpoint(t testing.TB, cfg Config, img []byte, wl fleet.Workload) []byte {
	t.Helper()
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	s.Close()
	if s.ckptErr != nil {
		t.Fatal(s.ckptErr)
	}
	good, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return good
}

// editCheckpoint applies edit to a checkpoint's JSON.
func editCheckpoint(t testing.TB, good []byte, edit func(*campaignSnap)) []byte {
	t.Helper()
	var snap campaignSnap
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Health) == 0 || len(snap.Future) == 0 {
		t.Fatalf("checkpoint holds %d health records and %d future intervals; the edits need both",
			len(snap.Health), len(snap.Future))
	}
	edit(&snap)
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointOutOfRangeStartsFresh: a checkpoint that matches the
// campaign's fingerprint but holds indices the campaign cannot hold is
// ignored like a mismatched one — the campaign starts fresh and runs
// without panicking, in New or later in the ingest fold.
func TestCheckpointOutOfRangeStartsFresh(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := churnConfig(200)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	good := fiveTickCheckpoint(t, cfg, img, wl)
	for _, tc := range outOfRangeEdits {
		t.Run(tc.name, func(t *testing.T) {
			data := editCheckpoint(t, good, tc.edit)
			if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, img, wl)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.tick != 0 {
				t.Fatalf("out-of-range checkpoint resumed at tick %d", s.tick)
			}
			for i := 0; i < 5 && !s.Done(); i++ {
				s.Tick()
			}
		})
	}
}

// FuzzCheckpointRestore writes arbitrary bytes as a campaign's checkpoint:
// New must restore them or start fresh, and the campaign must then run a
// few ticks and close without panicking. Seeds are the five-tick
// checkpoint of TestCheckpointOutOfRangeStartsFresh and its four
// out-of-range edits.
func FuzzCheckpointRestore(f *testing.F) {
	wl := testWorkload(f)
	img := testController(f, wl.Cfg, -4, "cp-good")
	cfg := churnConfig(200)
	cfg.CheckpointPath = filepath.Join(f.TempDir(), "campaign.ckpt")
	good := fiveTickCheckpoint(f, cfg, img, wl)
	f.Add(good)
	for _, tc := range outOfRangeEdits {
		f.Add(editCheckpoint(f, good, tc.edit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := cfg
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		if err := os.WriteFile(cfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3 && !s.Done(); i++ {
			s.Tick()
		}
		s.Close()
	})
}

// TestCheckpointedCampaignMatchesColdDecode holds the flash step's shared
// image decode to cold decodes at campaign level: a corrupting campaign
// with stragglers re-flashed, checkpointed and killed mid-flight so the
// resume replays installs through the shared decode, must produce the
// Report and event bytes of an uninterrupted run in which every untouched
// install decodes the image from scratch.
func TestCheckpointedCampaignMatchesColdDecode(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	cfg := testConfig(400)
	cfg.CorruptProb = 0.3
	cfg.FlashRetries = 0
	cfg.Quorum = 0.5

	memo := cfg
	memo.CheckpointPath = filepath.Join(t.TempDir(), "memo.ckpt")
	rep, ev := interruptResume(t, memo, memo, img, wl, 4)

	cold := cfg
	cold.CheckpointPath = filepath.Join(t.TempDir(), "cold.ckpt")
	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	s, err := New(cold, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() (*core.GatingController, error) {
		return core.LoadControllerUnverified(bytes.NewReader(img))
	}
	s.spec.Decode, s.reflash.Decode = decode, decode
	repC, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var evC bytes.Buffer
	if err := log.WriteJSONL(&evC); err != nil {
		t.Fatal(err)
	}

	reflashed := 0
	for _, st := range repC.Rings {
		reflashed += st.Reflashed
	}
	if reflashed == 0 || repC.CRCRejects == 0 {
		t.Fatalf("campaign re-flashed %d stragglers after %d CRC rejects; need both", reflashed, repC.CRCRejects)
	}
	if !reflect.DeepEqual(rep, repC) {
		t.Errorf("shared-decode report diverges from cold decodes:\n%+v\nvs\n%+v", rep, repC)
	}
	if !bytes.Equal(ev, evC.Bytes()) {
		t.Error("shared-decode event log diverges from cold decodes")
	}
}
