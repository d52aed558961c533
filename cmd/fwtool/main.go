// Command fwtool manages firmware images — the artifacts Section 7.3's
// deployment story pushes to fleet machines. Images are sealed in a CRC
// integrity envelope; -corrupt flips seeded bits in an image to exercise
// the detector, and -no-verify demonstrates the failure it prevents.
//
// Usage:
//
//	fwtool -train best-rf -o fw.img            # train + save an image
//	fwtool -train best-rf -guardrail -o fw.img # size for guarded deployment
//	fwtool -info fw.img                        # inspect an image
//	fwtool -eval fw.img                        # deploy on the test suite
//	fwtool -corrupt fw.img -flips 3 -o bad.img # flip seeded bits
//	fwtool -eval bad.img                       # rejected: CRC mismatch
//	fwtool -eval bad.img -no-verify            # deploy anyway (on your head)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// errUsage reports an invocation with no command; main exits 2 as flag
// parsing errors do.
var errUsage = errors.New("fwtool: no command")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "fwtool:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind an injectable front: args are the
// command-line arguments (without the program name), stdout receives the
// results, stderr the progress lines. Tests drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fwtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	train := fs.String("train", "", "train a model (best-rf, best-mlp, charstar) and save an image")
	out := fs.String("o", "firmware.img", "output image path for -train and -corrupt")
	info := fs.String("info", "", "print an image's metadata")
	eval := fs.String("eval", "", "deploy an image on the SPEC-like test suite")
	corrupt := fs.String("corrupt", "", "copy an image with -flips seeded bit flips to -o")
	flips := fs.Int("flips", 1, "bit flips for -corrupt")
	guardrail := fs.Bool("guardrail", false, "size -train for guarded deployment (reserve the watchdog budget)")
	noVerify := fs.Bool("no-verify", false, "skip the CRC integrity check when loading (-info/-eval)")
	apps := fs.Int("apps", 120, "training corpus applications for -train")
	psla := fs.Float64("psla", 0.9, "SLA threshold for -train")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *train != "":
		return doTrain(*train, *out, *apps, *psla, *seed, *guardrail, stdout, stderr)
	case *info != "":
		return doInfo(*info, *noVerify, stdout)
	case *eval != "":
		return doEval(*eval, *seed, *noVerify, stdout, stderr)
	case *corrupt != "":
		return doCorrupt(*corrupt, *out, *flips, *seed, stdout)
	default:
		fs.Usage()
		return errUsage
	}
}

func doTrain(model, out string, apps int, psla float64, seed int64, guardrail bool, stdout, stderr io.Writer) error {
	corpus := trace.BuildHDTR(trace.HDTRConfig{Apps: apps, InstrsPerTrace: 550_000, Seed: seed})
	cfg := dataset.DefaultConfig()
	fmt.Fprintf(stderr, "simulating %d traces...\n", len(corpus.Traces))
	tel := dataset.SimulateCorpus(corpus, cfg)

	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		return err
	}
	in := core.BuildInputs{
		Tel: tel, Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: psla}, Interval: cfg.Interval,
		Spec: mcu.DefaultSpec(), Seed: seed,
		Guardrail: guardrail,
	}
	var g *core.GatingController
	switch model {
	case "best-rf":
		g, err = core.BuildBestRF(in)
	case "best-mlp":
		g, err = core.BuildBestMLP(in)
	case "charstar":
		g, err = core.BuildCHARSTAR(in)
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := core.SaveController(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, _ := os.Stat(out)
	fmt.Fprintf(stdout, "wrote %s: %s, %d bytes, granularity %dk, thresholds %.2f/%.2f",
		out, g.Name, st.Size(), g.Granularity/1000, g.ThresholdHigh, g.ThresholdLow)
	if g.WatchdogOps > 0 {
		fmt.Fprintf(stdout, ", watchdog reserve %d ops", g.WatchdogOps)
	}
	fmt.Fprintln(stdout)
	return nil
}

// loadImage opens a controller image, verifying its integrity envelope
// unless noVerify asks for the unguarded path.
func loadImage(path string, noVerify bool) (*core.GatingController, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if noVerify {
		return core.LoadControllerUnverified(f)
	}
	return core.LoadController(f)
}

func doInfo(path string, noVerify bool, stdout io.Writer) error {
	g, err := loadImage(path, noVerify)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "name:            %s\n", g.Name)
	if noVerify {
		fmt.Fprintf(stdout, "integrity:       SKIPPED (-no-verify)\n")
	} else {
		fmt.Fprintf(stdout, "integrity:       CRC ok\n")
	}
	fmt.Fprintf(stdout, "P_SLA:           %.2f\n", g.SLA.PSLA)
	fmt.Fprintf(stdout, "granularity:     %d instructions\n", g.Granularity)
	fmt.Fprintf(stdout, "ops/prediction:  %d (budget %d)\n",
		g.OpsPerPrediction, mcu.DefaultSpec().OpsBudget(g.Granularity))
	if g.WatchdogOps > 0 {
		fmt.Fprintf(stdout, "watchdog:        %d ops reserved\n", g.WatchdogOps)
	}
	fmt.Fprintf(stdout, "thresholds:      high %.2f, low %.2f\n", g.ThresholdHigh, g.ThresholdLow)
	fmt.Fprintf(stdout, "counters:        %d columns\n", len(g.Columns))
	for _, c := range g.Columns {
		fmt.Fprintf(stdout, "  - %s\n", g.Counters.Names[c])
	}
	if err := g.Validate(mcu.DefaultSpec()); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "budget check:    ok")
	return nil
}

func doEval(path string, seed int64, noVerify bool, stdout, stderr io.Writer) error {
	g, err := loadImage(path, noVerify)
	if err != nil {
		return err
	}

	test := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 650_000, Seed: seed + 1})
	cfg := dataset.DefaultConfig()
	fmt.Fprintf(stderr, "simulating %d test traces...\n", len(test.Traces))
	tel := dataset.SimulateCorpus(test, cfg)
	sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, g, test, tel, cfg, power.DefaultModel())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: PPW %+.1f%%, RSV %.2f%%, PGOS %.1f%%, residency %.1f%%\n",
		g.Name, 100*sum.MeanBenchmarkPPWGain(), 100*sum.Overall.RSV,
		100*sum.Overall.Confusion.PGOS(), 100*sum.Overall.Residency)
	return nil
}

// doCorrupt copies an image with n seeded single-bit flips — fault material
// for exercising the CRC detector end to end.
func doCorrupt(path, out string, n int, seed int64, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	img, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	positions := fault.FlipBits(img, seed, n)
	if err := os.WriteFile(out, img, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d bytes, flipped bits %v\n", out, len(img), positions)
	return nil
}
