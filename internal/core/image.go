package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/linear"
	"clustergate/internal/ml/mlp"
	"clustergate/internal/ml/svm"
	"clustergate/internal/telemetry"
)

// FirmwareImage is the serialised form of a trained controller — the
// artifact Section 7.3's deployment story pushes to machines through
// datacenter infrastructure management software. The image carries the
// per-mode model parameters, calibrated thresholds, counter columns, and
// granularity; the counter-set definition itself is the standard on-die
// one, referenced by tag rather than embedded.
type FirmwareImage struct {
	FormatVersion int
	Name          string
	SLA           dataset.SLA
	Interval      int
	Granularity   int
	OpsPerPred    int
	WatchdogOps   int
	ThresholdHigh float64
	ThresholdLow  float64
	CounterSetTag string
	Columns       []int
	HighPerf      ModelBlob
	LowPower      ModelBlob
}

// ModelBlob is one mode's model: a kind tag plus gob-encoded parameters.
type ModelBlob struct {
	Kind string
	Gob  []byte
}

// imageFormatVersion guards against decoding incompatible images.
// Version 2 added the watchdog op reserve and the CRC integrity envelope.
const imageFormatVersion = 2

// standardCounterSetTag names the only counter space this design ships.
const standardCounterSetTag = "standard-936"

// init numbers every type a firmware image carries with gob before any
// other code can gob-encode. gob assigns wire type IDs process-wide in
// first-use order and writes them into the stream, so an image's bytes —
// and with them its CRC and what a transport bit flip does to it — would
// otherwise depend on what the process encoded earlier (a cold telemetry
// cache encodes its records first). Encoding one zero value of each, in
// SaveController's order (the model kinds, then the image around them),
// makes an image a pure function of its controller.
func init() {
	for _, v := range []any{&forest.Forest{}, &forest.Tree{}, &mlp.MLP{}, &linear.Logistic{},
		&linear.SRCH{}, &svm.Linear{}, &svm.Ensemble{}, FirmwareImage{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(fmt.Sprintf("core: numbering %T for gob: %v", v, err))
		}
	}
}

// SaveController writes a controller as a firmware image: the gob-encoded
// payload sealed in the mcu integrity envelope, so the deployment path can
// detect bit corruption before a damaged model reaches a machine.
func SaveController(w io.Writer, g *GatingController) error {
	img := FirmwareImage{
		FormatVersion: imageFormatVersion,
		Name:          g.Name,
		SLA:           g.SLA,
		Interval:      g.Interval,
		Granularity:   g.Granularity,
		OpsPerPred:    g.OpsPerPrediction,
		WatchdogOps:   g.WatchdogOps,
		ThresholdHigh: g.ThresholdHigh,
		ThresholdLow:  g.ThresholdLow,
		CounterSetTag: standardCounterSetTag,
		Columns:       append([]int(nil), g.Columns...),
	}
	var err error
	if img.HighPerf, err = encodeModel(g.HighPerf); err != nil {
		return fmt.Errorf("core: high-perf model: %w", err)
	}
	if img.LowPower, err = encodeModel(g.LowPower); err != nil {
		return fmt.Errorf("core: low-power model: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return fmt.Errorf("core: encoding firmware image: %w", err)
	}
	_, err = w.Write(mcu.SealImage(buf.Bytes()))
	return err
}

// LoadController reads a firmware image, verifies its integrity envelope,
// and reconstructs a deployable controller, rewrapping each model in
// op-metered firmware. A corrupted image fails with mcu.ErrImageCorrupt
// and never deploys.
func LoadController(r io.Reader) (*GatingController, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading firmware image: %w", err)
	}
	payload, err := mcu.OpenImage(raw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return decodeImage(payload)
}

// LoadControllerUnverified skips the CRC check and decodes whatever payload
// the envelope claims to carry. It exists to demonstrate the failure mode
// the detector prevents: with verification off, a bit-flipped image can
// decode into a silently-wrong controller and deploy.
func LoadControllerUnverified(r io.Reader) (*GatingController, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading firmware image: %w", err)
	}
	payload, err := mcu.UnwrapImage(raw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return decodeImage(payload)
}

// decodeImage reconstructs a controller from a verified (or deliberately
// unverified) gob payload.
func decodeImage(payload []byte) (*GatingController, error) {
	var img FirmwareImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		return nil, fmt.Errorf("core: decoding firmware image: %w", err)
	}
	if img.FormatVersion != imageFormatVersion {
		return nil, fmt.Errorf("core: firmware image version %d unsupported", img.FormatVersion)
	}
	if img.CounterSetTag != standardCounterSetTag {
		return nil, fmt.Errorf("core: unknown counter set %q", img.CounterSetTag)
	}
	for _, c := range img.Columns {
		if c < 0 || c >= telemetry.TotalCounters {
			return nil, fmt.Errorf("core: column %d outside the %d-counter space", c, telemetry.TotalCounters)
		}
	}
	g := &GatingController{
		Name:             img.Name,
		SLA:              img.SLA,
		Interval:         img.Interval,
		Granularity:      img.Granularity,
		OpsPerPrediction: img.OpsPerPred,
		WatchdogOps:      img.WatchdogOps,
		ThresholdHigh:    img.ThresholdHigh,
		ThresholdLow:     img.ThresholdLow,
		Counters:         telemetry.NewStandardCounterSet(),
		Columns:          img.Columns,
	}
	var err error
	if g.HighPerf, err = decodeModel(img.HighPerf, img.Name+"-high", len(img.Columns)); err != nil {
		return nil, err
	}
	if g.LowPower, err = decodeModel(img.LowPower, img.Name+"-low", len(img.Columns)); err != nil {
		return nil, err
	}
	return g, nil
}

// encodeModel serialises one mode's predictor. Firmware wrappers are
// unwrapped; the image stores bare model parameters.
func encodeModel(p Predictor) (ModelBlob, error) {
	var m any
	switch pp := p.(type) {
	case PointPredictor:
		m = pp.M
		if fw, ok := m.(*mcu.Firmware); ok {
			m = fw.Model
		}
	case WindowPredictor:
		m = pp.M
	default:
		return ModelBlob{}, fmt.Errorf("unsupported predictor type %T", p)
	}

	var kind string
	switch m.(type) {
	case *forest.Forest:
		kind = "random-forest"
	case *forest.Tree:
		kind = "decision-tree"
	case *mlp.MLP:
		kind = "mlp"
	case *linear.Logistic:
		kind = "logistic"
	case *linear.SRCH:
		kind = "srch"
	case *svm.Linear:
		kind = "svm-linear"
	case *svm.Ensemble:
		kind = "svm-ensemble"
	default:
		return ModelBlob{}, fmt.Errorf("unsupported model type %T", m)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return ModelBlob{}, err
	}
	return ModelBlob{Kind: kind, Gob: buf.Bytes()}, nil
}

// decodeModel reconstructs a predictor from a blob, re-deriving its
// firmware cost.
func decodeModel(b ModelBlob, name string, inputs int) (Predictor, error) {
	// Shape-checked models read the selected columns, or the whole
	// counter space when none are selected.
	width := inputs
	if width == 0 {
		width = telemetry.TotalCounters
	}
	// Every kind is shape-checked after decoding, so a damaged payload
	// is rejected here instead of failing at inference.
	var model interface {
		Score([]float64) float64
		CheckShape(inputs int) error
	}
	switch b.Kind {
	case "random-forest":
		model = &forest.Forest{}
	case "decision-tree":
		model = &forest.Tree{}
	case "mlp":
		model = &mlp.MLP{}
	case "logistic":
		model = &linear.Logistic{}
	case "srch":
		model = &linear.SRCH{}
	case "svm-linear":
		model = &svm.Linear{}
	case "svm-ensemble":
		model = &svm.Ensemble{}
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", b.Kind)
	}
	if err := gob.NewDecoder(bytes.NewReader(b.Gob)).Decode(model); err != nil {
		return nil, err
	}
	if err := model.CheckShape(width); err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if m, ok := model.(*linear.SRCH); ok {
		return WindowPredictor{M: m}, nil
	}
	fw, err := mcu.NewFirmware(name, model, inputs)
	if err != nil {
		return nil, err
	}
	return PointPredictor{M: fw}, nil
}
