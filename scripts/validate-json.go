//go:build ignore

// validate-json checks that each argument parses as a JSON document and,
// where the file's shape identifies a known schema, validates that schema.
// Used by check.sh to gate the artifacts emitted by the observability
// layer; run it as
//
//	go run scripts/validate-json.go FILE...
//
// These shapes are recognised:
//
//   - *.jsonl — an event log: every line must be a JSON object carrying
//     the required scope/t/kind fields, and lines must be sorted by
//     (scope, t, kind) — the determinism contract obs.EventLog.WriteJSONL
//     promises.
//   - a JSON object with a "traceEvents" array — a Chrome trace: every
//     event needs name/ph/pid/tid, "X" events need ts and non-negative
//     dur.
//   - an artifact declared in internal/obs (see its schema.go): the
//     uarch, surrogate, ctrlplane and ctrlplane-churn BENCH files by
//     their schema tag, a results file by its "results" array, a run
//     manifest by its "tool". Every declared key must be present unless
//     optional, of its declared JSON type, and within its declared bounds
//     (non-negative, integral counts, completion rates at most 1, a
//     present optional key not its zero value, collections non-empty) —
//     so a manifest's peak_rss_mb is positive or absent, and a uarch file
//     needs at least one benchmark.
//   - anything else — plain JSON well-formedness, as before.
//
// It exits nonzero on the first unreadable or malformed file and prints a
// one-line summary per valid file as a sanity signal.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"clustergate/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validate-json FILE...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := validate(path); err != nil {
			fmt.Fprintf(os.Stderr, "validate-json: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func validate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		return validateEventLog(path, data)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	switch v := doc.(type) {
	case map[string]any:
		if events, ok := v["traceEvents"].([]any); ok {
			return validateChromeTrace(path, events)
		}
		if s := obs.Detect(v); s != nil {
			return validateDeclared(path, s, v)
		}
		fmt.Printf("%s: valid JSON object, %d top-level keys\n", path, len(v))
	case []any:
		fmt.Printf("%s: valid JSON array, %d elements\n", path, len(v))
	default:
		fmt.Printf("%s: valid JSON\n", path)
	}
	return nil
}

// validateEventLog checks an obs event log: JSONL, required fields, and
// deterministic (scope, t, kind) ordering.
func validateEventLog(path string, data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var prevScope, prevKind string
	var prevT float64
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n++
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		scope, _ := ev["scope"].(string)
		kind, _ := ev["kind"].(string)
		t, tok := ev["t"].(float64)
		if scope == "" || kind == "" || !tok {
			return fmt.Errorf("line %d: event missing scope/t/kind: %s", n, line)
		}
		if n > 1 {
			if scope < prevScope ||
				(scope == prevScope && t < prevT) ||
				(scope == prevScope && t == prevT && kind < prevKind) {
				return fmt.Errorf("line %d: events not sorted by (scope, t, kind)", n)
			}
		}
		prevScope, prevT, prevKind = scope, t, kind
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("%s: valid event log, %d events, deterministically ordered\n", path, n)
	return nil
}

// validateDeclared checks every declared key of schema s in doc.
func validateDeclared(path string, s *obs.Schema, doc map[string]any) error {
	var err error
	keys := 0
	s.Walk([]map[string]any{doc}, func(k *obs.Key) bool {
		if err == nil {
			err = k.Check(k.Vals[0])
			keys++
		}
		return err == nil && k.Vals[0] != nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid %s, %d declared keys checked\n", path, s.Name, keys)
	return nil
}

// validateChromeTrace checks the trace-event array: metadata and complete
// events with the fields Perfetto requires.
func validateChromeTrace(path string, events []any) error {
	for i, e := range events {
		ev, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("traceEvents[%d]: not an object", i)
		}
		if _, ok := ev["name"].(string); !ok {
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			return fmt.Errorf("traceEvents[%d]: unexpected ph %q", i, ph)
		}
		for _, k := range []string{"pid", "tid"} {
			if _, ok := ev[k].(float64); !ok {
				return fmt.Errorf("traceEvents[%d]: missing %s", i, k)
			}
		}
		if ph == "X" {
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("traceEvents[%d]: X event needs non-negative ts", i)
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				return fmt.Errorf("traceEvents[%d]: negative dur", i)
			}
		}
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, len(events))
	return nil
}
