//go:build ignore

// perfpairs summarises alternating perfbench pairs, as scripts/perfpairs.sh
// runs them. Each line on standard input is one run:
//
//	SIDE SEED EXIT RESULT
//
// where SIDE is "base" or "change", SEED the run's seed, EXIT its exit
// status and RESULT perfbench's result line (empty when the run wrote
// none). For each end-to-end metric BENCHMARK.json declares it prints each
// side's median and quartiles, interpolated between closest ranks as
// perfbench interpolates its own quantiles, the change in medians and how
// many pairs the change won in the metric's better direction. Run it as
//
//	go run scripts/perfpairs.go -bench BENCHMARK.json [-workload NAME] < runs.txt
//
// It exits 1 if any run exited non-zero, wrote no result, was incorrect or
// failed operations, or if a seed lacks one of its two sides.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is perfbench's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricDecl is one end-to-end metric of BENCHMARK.json.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark declaration naming the end-to-end metrics")
	workload := flag.String("workload", "", "workload name for the summary's headings")
	flag.Parse()
	raw, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(2)
	}
	var decl struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil || len(decl.EndToEnd) == 0 {
		fmt.Fprintf(os.Stderr, "perfpairs: %s declares no end-to-end metrics (%v)\n", *bench, err)
		os.Exit(2)
	}
	ok, err := summarise(os.Stdin, os.Stdout, decl.EndToEnd, *workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// summarise reads the runs from in and writes the summary to out. It
// reports false when some run is not a clean, correct result or a pair is
// incomplete.
func summarise(in io.Reader, out io.Writer, metrics []metricDecl, workload string) (bool, error) {
	type pair struct{ base, change *result }
	pairs := map[int64]*pair{}
	ok := true
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.SplitN(line, " ", 4)
		if len(f) < 3 || (f[0] != "base" && f[0] != "change") {
			return false, fmt.Errorf("line %d: want SIDE SEED EXIT RESULT, got %q", n, line)
		}
		seed, err1 := strconv.ParseInt(f[1], 10, 64)
		status, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return false, fmt.Errorf("line %d: bad seed or exit status in %q", n, line)
		}
		p := pairs[seed]
		if p == nil {
			p = &pair{}
			pairs[seed] = p
		}
		var r result
		switch {
		case status != 0:
			fmt.Fprintf(out, "%s seed %d: exited %d\n", f[0], seed, status)
			ok = false
			continue
		case len(f) < 4 || json.Unmarshal([]byte(f[3]), &r) != nil:
			fmt.Fprintf(out, "%s seed %d: no result line\n", f[0], seed)
			ok = false
			continue
		case !r.Correct || r.Failed != 0:
			fmt.Fprintf(out, "%s seed %d: correct %v, %d of %d operations failed\n", f[0], seed, r.Correct, r.Failed, r.Attempted)
			ok = false
		}
		if f[0] == "base" {
			p.base = &r
		} else {
			p.change = &r
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	all := make([]int64, 0, len(pairs))
	for s := range pairs {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var seeds []int64
	for _, s := range all {
		if p := pairs[s]; p.base == nil || p.change == nil {
			fmt.Fprintf(out, "seed %d: one side has no result\n", s)
			ok = false
			continue
		}
		seeds = append(seeds, s)
	}

	for _, m := range metrics {
		var base, change []float64
		wins := 0
		var rows strings.Builder
		for _, s := range seeds {
			b, okB := pairs[s].base.Metrics[m.Name]
			c, okC := pairs[s].change.Metrics[m.Name]
			if !okB || !okC {
				continue
			}
			base, change = append(base, b.Value), append(change, c.Value)
			if (m.Better == "lower" && c.Value < b.Value) || (m.Better == "higher" && c.Value > b.Value) {
				wins++
			}
			fmt.Fprintf(&rows, "  seed %d: base %.4g, change %.4g (%+.1f%%)\n", s, b.Value, c.Value, pct(b.Value, c.Value))
		}
		if len(base) == 0 {
			continue
		}
		head := m.Name
		if workload != "" {
			head = workload + " " + m.Name
		}
		fmt.Fprintf(out, "%s (%s, %s is better), %d pairs:\n%s", head, m.Unit, m.Better, len(base), rows.String())
		for _, side := range []struct {
			name string
			v    []float64
		}{{"base", base}, {"change", change}} {
			fmt.Fprintf(out, "  %-6s median %.4g [q1 %.4g, q3 %.4g]\n",
				side.name, quantile(side.v, 0.5), quantile(side.v, 0.25), quantile(side.v, 0.75))
		}
		fmt.Fprintf(out, "  change in medians %+.1f%%, change better in %d/%d pairs\n",
			pct(quantile(base, 0.5), quantile(change, 0.5)), wins, len(base))
	}
	return ok, nil
}

// pct is the change from a to b in percent of a.
func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b/a - 1)
}

// quantile is the q-quantile of xs, interpolating linearly between the
// closest ranks, as perfbench computes its round quantiles.
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
