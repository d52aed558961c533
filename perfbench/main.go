// Command perfbench is clustergate's end-to-end benchmark. It builds the
// paper's pipeline from a seed — a small training corpus and a held-out
// SPEC-like suite, their fixed-mode telemetry, and a calibrated Best RF
// controller — then runs one workload for a fixed time:
//
//	study   exact closed-loop deployments of the controller on the suite,
//	        each round under a freshly seeded fault plan with the guardrail
//	        on, as in paperbench's fault studies; on every core;
//	replay  the same deployments through the surrogate oracle, serially;
//	fleet   control-plane campaigns rolling the sealed controller image out
//	        to a 240-machine datacenter, soaking on the surrogate, serially.
//
// Usage:
//
//	perfbench --workload study|replay|fleet --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: whether every
// checked output was correct, the operations attempted and failed, and the
// metrics. An operation is one deployment or one campaign; a round is one
// deployment of every suite trace, or one campaign. With --trace 0 the
// metrics are the end-to-end ones: the p90 latency of a round and the
// median time of the set-ups. Rounds run back to back and each one covers
// the whole suite, so a slowdown on any trace moves every round. Shared
// hosts alternate between quiet stretches and contended ones, in which a
// round takes up to twice as long, and the share of a run spent in each
// varies from run to run. The p90 sits in the contended stretches every
// run has, so it repeats where the median does not. The median, the round
// count and the set-up times go to standard error. With --trace 1 the
// metrics are the per-layer ledger of ledger.go, per round.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run builds its inputs; setup_s is the median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "study, replay or fleet")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}

	// Each set-up rebuilds everything from the seed; the last one's bench is
	// measured and the median set-up's layer times are reported.
	var (
		b      bench
		totals []float64
		clocks []setupClock
	)
	for i := 0; i < setups; i++ {
		clk := setupClock{}
		t0 := time.Now()
		in, err := buildInputs(*seed, clk)
		if err == nil {
			b, err = wl.setup(in, clk)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, time.Since(t0).Seconds())
		clocks = append(clocks, clk)
	}
	order := make([]int, setups)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return totals[order[i]] < totals[order[j]] })
	medianSetup := order[setups/2]

	if wl.serial {
		runtime.GOMAXPROCS(1)
	}
	rec := &recorder{}
	if *traced == 1 {
		rec.l = newLedger()
	}
	var lat []float64
	dur := time.Duration(*seconds) * time.Second
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < dur {
		t0 := time.Now()
		if err := b.round(len(lat), rec); err != nil {
			return fmt.Errorf("round %d: %w", len(lat), err)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	elapsed := time.Since(start)
	rounds := len(lat)

	// The ledger closes before verify, whose redeployments are not measured.
	res := result{Attempted: rec.attempted, Failed: rec.failed}
	if rec.l != nil {
		res.Metrics = rec.l.perLayer(rounds, runtime.GOMAXPROCS(0), float64(elapsed)/1e6, clocks[medianSetup])
	} else {
		res.Metrics = map[string]metric{
			"round_p90_ms": {quantile(lat, 0.9), "ms"},
			"setup_s":      {totals[medianSetup], "s"},
		}
	}
	if rec.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %d operations failed, first: %v\n", rec.failed, rec.firstErr)
	}
	verr := b.verify(stderr)
	if verr != nil {
		fmt.Fprintln(stderr, "perfbench: verify:", verr)
	}
	res.Correct = rec.failed == 0 && verr == nil
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d operations in %d rounds over %.2fs on %d threads, round median %.4g ms p90 %.4g ms, set-ups %.3v s\n",
		*name, *seed, rec.attempted, rounds, elapsed.Seconds(), runtime.GOMAXPROCS(0),
		quantile(lat, 0.5), quantile(lat, 0.9), totals)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// quantile is the q-quantile of xs, interpolating linearly between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
