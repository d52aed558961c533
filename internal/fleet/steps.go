package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/fault"
	"clustergate/internal/mcu"
	"clustergate/internal/metrics"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// This file is the reusable step layer of the rollout machinery: the flash
// transport model (FlashSpec.Flash), the soak health evaluation (Soaker),
// and the gate predicates (GatePolicy.TransportFailure/HealthFailure) as
// free-standing building blocks, which internal/ctrlplane composes into
// its control loop.

// Flash phases, mixed into the operation key so install and rollback
// flashes of the same machine draw independent schedules. Adding a third
// phase would collide with the next machine's install key (the key is
// machine*2+phase); derive a fresh FlashSpec.Seed instead, as the control
// plane's straggler re-flash pass does.
const (
	// PhaseInstall keys a new-image install flash.
	PhaseInstall = 0
	// PhaseRollback keys a rollback slot-switch flash.
	PhaseRollback = 1
)

// opKey identifies one machine's flash operation in one phase.
func opKey(machine, phase int) int { return machine*2 + phase }

// FlashSpec describes one flash campaign's transport model: the image
// being pushed and the seeded failure/corruption schedule every machine's
// attempts draw against. A FlashSpec is immutable and safe for concurrent
// Flash calls; each call is a pure function of (Seed, machine, phase), so
// outcomes are identical no matter which worker runs them, or when.
type FlashSpec struct {
	// Seed drives every transport decision. Campaigns that must draw
	// independent schedules for the same machines (e.g. a straggler
	// re-flash pass) derive a fresh seed by salting this one.
	Seed int64
	// Img is the sealed controller image to push. Nil models a rollback
	// slot switch: the resident previous image is re-activated in place,
	// no payload travels, so corruption and verification do not apply —
	// only transient failures can delay it.
	Img []byte
	// Decode returns the controller Img decodes to. Every attempt whose
	// payload arrives untouched calls it, after the CRC check when Verify
	// is set, so build it with DecodeOnce(Img) where the spec is built:
	// the image then decodes at most once per campaign, and copies of the
	// spec (a re-flash pass, a checkpoint replay) share that decode.
	// Required when Img is set.
	Decode func() (*core.GatingController, error)
	// Verify selects the CRC-checked install path: corrupted payloads are
	// rejected at the envelope and the transfer is retried. False models
	// the legacy pipeline that installs whatever arrives.
	Verify bool
	// CorruptProb is the per-transfer probability that the payload
	// arrives with CorruptBits seeded bit flips.
	CorruptProb float64
	CorruptBits int
	// FailProb is the per-attempt transient-failure probability; the
	// schedule never fails a machine's final attempt, so retries always
	// absorb transients and only CRC rejections can exhaust a machine.
	FailProb float64
	// Retries is how many extra attempts a failed flash gets.
	Retries int
	// Scope names the event-log scope for fleet.crc.reject events.
	Scope string
	// Emitter, when set, receives fleet.crc.reject events instead of the
	// process-wide obs event log. Callers that must replay a flash after a
	// checkpoint restore route events here so they can record them
	// durably (or drop the duplicates a replay would otherwise emit). It
	// must be safe for concurrent calls: Flash runs on worker goroutines.
	Emitter func(t int64, kind string, attrs map[string]any)
}

// FlashOutcome is one machine's final flash result plus its attempt
// accounting.
type FlashOutcome struct {
	// Installed reports the machine runs the pushed image (or, for a
	// slot-switch spec, reverted to the previous one).
	Installed bool
	// Corrupt reports the installed payload was bit-corrupted in transport.
	Corrupt bool
	// Crashed reports the installed payload failed to decode (unverified
	// path only) — the machine is down until rolled back.
	Crashed bool
	// Ctrl is the decoded controller when the install produced one. Every
	// untouched install of a spec shares one controller: read-only.
	Ctrl *core.GatingController
	// Attempts counts every flash attempt; Retries the transient failures
	// among them; CRCRejects the attempts rejected at the CRC envelope.
	Attempts, Retries, CRCRejects int
}

// DecodeOnce returns a FlashSpec.Decode for img: the first call decodes
// the image, and every later call returns the same controller, or the same
// error. An intact payload decodes to the same controller on every
// machine, so one decode serves the whole fleet. A decode that panics
// panics again on every call (sync.OnceValues), so a failed decode can
// never surface as a nil controller reported as installed.
func DecodeOnce(img []byte) func() (*core.GatingController, error) {
	return sync.OnceValues(func() (*core.GatingController, error) {
		flashDecodes.Inc()
		return core.LoadControllerUnverified(bytes.NewReader(img))
	})
}

// Flash pushes the spec's image to one machine, running the full retrying
// attempt loop, and returns the final outcome. Each attempt draws its
// transient-failure and corruption schedule from (Seed, machine, phase,
// attempt), so the outcome is deterministic for any caller arrangement.
func (s *FlashSpec) Flash(machine, phase int) FlashOutcome {
	if s.Img != nil && s.Decode == nil {
		panic("fleet: FlashSpec has an image but no Decode; set it to DecodeOnce(Img)")
	}
	var out FlashOutcome
	for a := 0; ; a++ {
		if s.attempt(machine, phase, a, &out) || a >= s.Retries {
			return out
		}
	}
}

// attempt runs one flash attempt, folding it into out, and reports whether
// the operation finished (successfully or terminally). A false return with
// attempts remaining means retry.
func (s *FlashSpec) attempt(machine, phase, a int, out *FlashOutcome) bool {
	out.Attempts++
	flashAttempts.Inc()
	defer func(t0 time.Time) { flashLatency.Observe(time.Since(t0)) }(time.Now())
	// Transient flash failure: scheduled to never hit a machine's final
	// attempt, so retries always absorb it.
	if a < s.Retries && fault.Hash01(s.Seed^saltFlash, opKey(machine, phase), a) < s.FailProb {
		out.Retries++
		flashRetries.Inc()
		return false
	}
	if s.Img == nil {
		// Slot switch: nothing travels, nothing can corrupt or fail CRC.
		out.Installed = true
		return true
	}
	// The transfer itself: each attempt draws corruption afresh.
	corrupt := s.CorruptProb > 0 &&
		fault.Hash01(s.Seed^saltCorrupt, opKey(machine, phase), a) < s.CorruptProb
	var g *core.GatingController
	var err error
	if corrupt {
		// A damaged payload is this attempt's own: decode it from scratch.
		payload := append([]byte(nil), s.Img...)
		fault.FlipBits(payload,
			int64(fault.HashU64(s.Seed^saltFlip, opKey(machine, phase), a)), s.CorruptBits)
		load := core.LoadControllerUnverified
		if s.Verify {
			load = core.LoadController
		}
		g, err = load(bytes.NewReader(payload))
		if !errors.Is(err, mcu.ErrImageCorrupt) {
			flashDecodes.Inc()
		}
	} else {
		// An untouched payload still has its envelope checked, but it
		// decodes to the spec's one shared controller.
		if s.Verify {
			_, err = mcu.OpenImage(s.Img)
		}
		if err == nil {
			g, err = s.Decode()
		}
	}
	if s.Verify && err != nil {
		out.CRCRejects++
		crcRejections.Inc()
		if s.Emitter != nil {
			s.Emitter(int64(machine), "fleet.crc.reject", map[string]any{"attempt": a})
		} else if obs.EventsActive() {
			obs.Emit(s.Scope, int64(machine), "fleet.crc.reject", map[string]any{"attempt": a})
		}
		// Out of attempts: the machine keeps its old image.
		return false
	}
	// The legacy unverified pipeline installs whatever arrived: a payload
	// too damaged to decode bricks the machine until rollback (g is nil);
	// one that decodes deploys silently wrong.
	out.Installed, out.Corrupt, out.Crashed, out.Ctrl = true, corrupt, err != nil, g
	return true
}

// SoakHealth is one machine's soak-phase health contribution: the
// gate-relevant reduction of a guardrail-instrumented deployment.
type SoakHealth struct {
	// Trips counts guardrail trips during the soak.
	Trips int
	// Windows and Violations are the effective SLA-window tally
	// (metrics.WindowTally over the actually-applied configurations).
	Windows, Violations int
	// Misgated of Truth0 truth-high-performance predictions were gated
	// anyway — the ring misgate rate's numerator and denominator.
	Misgated, Truth0 int
	// Crashed reports the deployment failed outright; CrashReason carries
	// the underlying error text for the event log ("" when healthy).
	Crashed     bool
	CrashReason string
}

// WindowStat is one fixed SLA window's health within a soak — the unit of
// telemetry a machine streams to the control plane, one interval per
// window.
type WindowStat struct {
	// Preds is the window's prediction count (the last window of a trace
	// may be a judged partial tail, per metrics.WindowTally).
	Preds int
	// Violated reports more than half the window's predictions were
	// false-positive gates.
	Violated bool
	// Misgated of Truth0 truth-high-performance predictions were gated.
	Misgated, Truth0 int
	// Trips is the window's share of the deployment's guardrail trips,
	// spread evenly across windows.
	Trips int
}

// SoakProfile is the per-window breakdown of one controller soaking on one
// trace. Health is always the exact fold of Windows, so a consumer
// streaming the profile window by window reproduces the batch health
// figures bit for bit.
type SoakProfile struct {
	Health  SoakHealth
	Windows []WindowStat
}

// Soaker evaluates soak health for controllers on a workload. Pristine
// results are memoised per trace index — every machine running the
// uncorrupted image executes the identical controller, so one deployment
// per unique trace covers them all — with a single-flight group collapsing
// concurrent first computations. Safe for concurrent use.
type Soaker struct {
	wl Workload
	gr core.Guardrail

	mu   sync.Mutex
	memo map[int]*SoakProfile
	sf   parallel.Group[*SoakProfile]
}

// NewSoaker returns a Soaker deploying on wl under gr.
func NewSoaker(wl Workload, gr core.Guardrail) *Soaker {
	return &Soaker{wl: wl, gr: gr, memo: map[int]*SoakProfile{}}
}

// Workload returns the soaker's workload.
func (s *Soaker) Workload() *Workload { return &s.wl }

// Deploy soaks one controller on trace index ti and reduces the deployment
// to its per-window profile. Uncached: use for controllers unique to one
// machine (a corrupted-but-decodable install). A deployment error counts
// as a crash with the error recorded, not a rollout error — a down machine
// is exactly the health signal the gate exists to catch.
func (s *Soaker) Deploy(g *core.GatingController, ti int) *SoakProfile {
	defer func(t0 time.Time) { soakDuration.Observe(time.Since(t0)) }(time.Now())
	oracle := s.wl.Oracle
	if oracle == nil {
		oracle = core.ExactOracle{}
	}
	gr := s.gr
	r, err := oracle.Deploy(g, s.wl.Traces[ti], s.wl.Tel[ti],
		s.wl.Cfg, s.wl.PM, core.DeployOptions{Guardrail: &gr})
	if err != nil {
		return &SoakProfile{Health: SoakHealth{Crashed: true, CrashReason: err.Error()}}
	}
	return profileOf(r.Eff, r.Truth, g.Window().W, r.GuardrailTrips)
}

// Pristine memoises Deploy per trace index for machines running the
// uncorrupted image, deploying each trace exactly once. The single-flight
// group collapses concurrent first computations, and the flight stores
// its result before it lands, so a caller that missed the memo just as a
// flight ended finds the result on its own flight instead of deploying
// again (and logging the deployment's events twice).
func (s *Soaker) Pristine(g *core.GatingController, ti int) *SoakProfile {
	memo := func() (*SoakProfile, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		p, ok := s.memo[ti]
		return p, ok
	}
	if p, ok := memo(); ok {
		return p
	}
	p, _, _ := s.sf.Do(fmt.Sprintf("trace-%d", ti), func() (*SoakProfile, error) {
		if p, ok := memo(); ok {
			return p, nil
		}
		p := s.Deploy(g, ti)
		s.mu.Lock()
		s.memo[ti] = p
		s.mu.Unlock()
		return p, nil
	})
	return p
}

// profileOf cuts a deployment's effective-configuration trace into the
// fixed SLA windows of metrics.WindowTally — every prediction in exactly
// one window, the trailing partial tail judged on its own length — and
// folds the per-window stats into the aggregate health.
func profileOf(eff, truth []int, w, trips int) *SoakProfile {
	if w <= 0 {
		w = 1
	}
	p := &SoakProfile{Health: SoakHealth{Trips: trips}}
	for start := 0; start < len(eff); start += w {
		end := start + w
		if end > len(eff) {
			end = len(eff)
		}
		ws := WindowStat{Preds: end - start}
		fp := 0
		for i := start; i < end; i++ {
			if truth[i] == 0 {
				ws.Truth0++
				if eff[i] == 1 {
					ws.Misgated++
				}
			}
			if eff[i] == 1 && truth[i] == 0 {
				fp++
			}
		}
		ws.Violated = float64(fp)/float64(ws.Preds) > 0.5
		p.Windows = append(p.Windows, ws)
	}
	// Spread trips evenly so streaming the windows reproduces the total.
	n := len(p.Windows)
	for i := range p.Windows {
		p.Windows[i].Trips = trips*(i+1)/n - trips*i/n
	}
	for _, ws := range p.Windows {
		p.Health.Windows++
		if ws.Violated {
			p.Health.Violations++
		}
		p.Health.Misgated += ws.Misgated
		p.Health.Truth0 += ws.Truth0
	}
	// The window cut must agree with the shared accounting helper by
	// construction; a mismatch means the two implementations drifted.
	if wins, viols := metrics.WindowTally(eff, truth, w); wins != p.Health.Windows || viols != p.Health.Violations {
		panic(fmt.Sprintf("fleet: profile windows (%d,%d) disagree with metrics.WindowTally (%d,%d)",
			p.Health.Windows, p.Health.Violations, wins, viols))
	}
	return p
}

// TransportFailure evaluates the flash-phase gate over a ring's transport
// telemetry, returning the first violated threshold ("" when the gate
// holds).
func (p *GatePolicy) TransportFailure(rep *RingReport) string {
	if rep.Crashes > 0 {
		return fmt.Sprintf("%d machine(s) crashed on install", rep.Crashes)
	}
	if rate := float64(rep.RejectedAttempts) / float64(rep.Size); rate > p.MaxCRCRejectRate {
		return fmt.Sprintf("CRC reject rate %.2f > %.2f", rate, p.MaxCRCRejectRate)
	}
	return ""
}

// HealthFailure evaluates the soak-phase gate over a ring's health
// telemetry, returning the first violated threshold ("" when the gate
// holds).
func (p *GatePolicy) HealthFailure(rep *RingReport) string {
	if rep.Crashes > 0 {
		return fmt.Sprintf("%d machine(s) crashed during soak", rep.Crashes)
	}
	// Quarantined machines (absent or lease-expired) contribute no
	// telemetry, so the per-machine normaliser counts only the live
	// installed population.
	if live := rep.Installed - rep.Quarantined; live > 0 {
		if trips := float64(rep.Trips) / float64(live); trips > p.MaxTripsPerMachine {
			return fmt.Sprintf("guardrail trips/machine %.2f > %.2f", trips, p.MaxTripsPerMachine)
		}
	}
	if rate := rep.MisgateRate(); rate > p.MaxMisgateRate {
		return fmt.Sprintf("misgate rate %.2f > %.2f", rate, p.MaxMisgateRate)
	}
	if rate := rep.SLARate(); rate > p.MaxSLARate {
		return fmt.Sprintf("SLA violation rate %.2f > %.2f", rate, p.MaxSLARate)
	}
	return ""
}
