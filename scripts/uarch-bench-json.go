//go:build ignore

// uarch-bench-json converts `go test -bench 'BenchmarkUarch' -benchmem`
// output on stdin into BENCH_uarch.json on stdout, so check.sh records the
// cycle-model's throughput trajectory per PR alongside the other BENCH
// files. Run it as
//
//	go test -run '^$' -bench 'BenchmarkUarch' -benchmem . | go run scripts/uarch-bench-json.go
//
// It validates as it parses: every benchmark line must carry the custom
// instrs/s and ns/instr metrics plus allocs/op, and at least one benchmark
// must be present, otherwise it exits nonzero without emitting anything.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"clustergate/internal/obs"
)

func main() {
	out := obs.UarchBench{Benchmarks: map[string]obs.UarchBenchmark{}, Schema: obs.UarchBenchTag}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends on multi-CPU hosts.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var b obs.UarchBenchmark
		var hasInstrs, hasNsPerInstr, hasAllocsPerOp bool
		b.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				fail("%s: bad metric value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "instrs/s":
				b.InstrsPerSec = v
				hasInstrs = true
			case "ns/instr":
				b.NsPerInstr = v
				hasNsPerInstr = true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
				hasAllocsPerOp = true
			}
		}
		if !hasInstrs || !hasNsPerInstr {
			fail("%s: missing instrs/s or ns/instr custom metrics (stale bench harness?)", name)
		}
		if !hasAllocsPerOp {
			fail("%s: missing allocs/op (run with -benchmem)", name)
		}
		// At 0 allocs/op the bench loop itself allocated nothing; a few
		// stray bytes/op are runtime allocations (GC, timer) amortised over
		// the tiny -benchtime 5x sample and flip run to run, which would
		// flake the exact-counter obsdiff gate. Clamp them.
		if b.AllocsPerOp == 0 {
			b.BytesPerOp = 0
		}
		out.Benchmarks[name] = b
	}
	if err := sc.Err(); err != nil {
		fail("reading stdin: %v", err)
	}
	if len(out.Benchmarks) == 0 {
		fail("no Benchmark lines found on stdin")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(&out); err != nil {
		fail("encoding: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "uarch-bench-json: "+format+"\n", args...)
	os.Exit(1)
}
