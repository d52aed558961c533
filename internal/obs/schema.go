package obs

import (
	"encoding"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The BENCH artifacts are declared once, here: each is a Go type whose
// json tags name its keys and whose gate tags say how cmd/obsdiff gates
// them. The writers fill these types, scripts/validate-json.go checks a
// parsed file against the declaration, and obsdiff walks two parsed files
// through it. A gate tag is a comma-separated list of words:
//
//   - a kind: count (drift either way at -ctol), metric (drift either
//     way at -mtol), lower or higher (lower or higher is better: a move
//     the other way past -tol regresses), verdict (a true→false flip
//     regresses); without one the key is recorded and validated only;
//   - warn: a finding is a warning, never a regression;
//   - mtol: a lower or higher key is gated at -mtol, not -tol;
//   - skip: a map keyed by instrument name, whose keys obsdiff's -skip
//     globs drop; its labels keep the map's name, since counters and
//     histograms share instrument names;
//   - id: the field whose string value names each element of an array;
//   - signed: the number may be negative (metric numbers always may);
//   - fraction: the number is at most 1;
//   - since=vN: the key first appeared in version N of the schema tag.
//
// A declared number must be non-negative unless signed, and an integer
// if its Go type is an integer or its kind is count. An omitempty key is
// optional, and present only when it is not its zero value. A present
// map or array is never empty.

// Tags written to the "schema" key of the tagged BENCH artifacts.
const (
	UarchBenchTag          = "uarch-bench/v1"
	SurrogateBenchTag      = "surrogate-bench/v2"
	CtrlplaneBenchTag      = "ctrlplane-bench/v1"
	CtrlplaneChurnBenchTag = "ctrlplane-churn-bench/v1"
)

// UarchBench is BENCH_uarch.json, written by scripts/uarch-bench-json.go
// from `go test -bench 'BenchmarkUarch' -benchmem` output.
type UarchBench struct {
	Benchmarks map[string]UarchBenchmark `json:"benchmarks"`
	Schema     string                    `json:"schema"`
}

// UarchBenchmark is one benchmark line: its timing, the bench harness's
// instruction-rate metrics, and its allocations.
type UarchBenchmark struct {
	Iterations   int64   `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op" gate:"lower"`
	InstrsPerSec float64 `json:"instructions_per_sec"`
	NsPerInstr   float64 `json:"ns_per_instr" gate:"lower"`
	BytesPerOp   float64 `json:"bytes_per_op" gate:"count"`
	AllocsPerOp  float64 `json:"allocs_per_op" gate:"count"`
}

// SurrogateBench is BENCH_surrogate.json (paperbench surrogate-bench): the
// exact and surrogate paths' per-deployment wall clock, first deployment
// of a trace and an identical repeat, and the surrogate's relative IPC
// error against the exact path.
type SurrogateBench struct {
	Backend                    string  `json:"backend"`
	Budget                     float64 `json:"budget"`
	Deploys                    int     `json:"deploys"`
	ErrMax                     float64 `json:"err_max" gate:"lower"`
	ErrP50                     float64 `json:"err_p50"`
	ErrP95                     float64 `json:"err_p95" gate:"lower"`
	ExactNSPerDeploy           float64 `json:"exact_ns_per_deploy" gate:"lower"`
	ExactRepeatNSPerDeploy     float64 `json:"exact_repeat_ns_per_deploy" gate:"lower,since=v2"`
	PredAgreement              float64 `json:"pred_agreement" gate:"higher,mtol,warn,fraction"`
	RepeatSpeedup              float64 `json:"repeat_speedup" gate:"since=v2"`
	Samples                    int     `json:"samples"`
	Schema                     string  `json:"schema"`
	Speedup                    float64 `json:"speedup"`
	SurrogateNSPerDeploy       float64 `json:"surrogate_ns_per_deploy" gate:"lower"`
	SurrogateRepeatNSPerDeploy float64 `json:"surrogate_repeat_ns_per_deploy" gate:"lower,since=v2"`
	Traces                     int     `json:"traces"`
	WithinBudget               bool    `json:"within_budget" gate:"verdict"`
}

// CtrlplaneBench is BENCH_ctrlplane.json (paperbench ctrlplane-soak): the
// ctrlplane-soak campaign's volume, throughput and decision latency, and
// its outcome verdicts.
type CtrlplaneBench struct {
	BadCaught       bool    `json:"bad_caught" gate:"verdict"`
	Completed       bool    `json:"completed" gate:"verdict"`
	Decisions       int64   `json:"decisions" gate:"count"`
	DecisionsPerSec float64 `json:"decisions_per_sec" gate:"higher"`
	Intervals       int64   `json:"intervals" gate:"count"`
	Machines        int     `json:"machines" gate:"count"`
	MachinesPerSec  float64 `json:"machines_per_sec" gate:"higher"`
	P95DecisionMS   float64 `json:"p95_decision_ms" gate:"lower"`
	Schema          string  `json:"schema"`
	Shards          int     `json:"shards" gate:"count"`
	Ticks           int     `json:"ticks" gate:"count"`
	WallSeconds     float64 `json:"wall_seconds" gate:"lower,warn"`
}

// CtrlplaneChurnBench is BENCH_ctrlplane_churn.json (paperbench
// ctrlplane-churn): the churn-rate × lease-policy sweep, one arm per campaign,
// plus the bad-image verdict and the sweep's decision latency.
type CtrlplaneChurnBench struct {
	Arms          []ChurnBenchArm `json:"arms"`
	BadCaught     bool            `json:"bad_caught" gate:"verdict"`
	GoodCompleted bool            `json:"good_completed" gate:"verdict"`
	Machines      int             `json:"machines" gate:"count"`
	P95DecisionMS float64         `json:"p95_decision_ms" gate:"lower"`
	Schema        string          `json:"schema"`
	WallSeconds   float64         `json:"wall_seconds" gate:"lower,warn"`
}

// ChurnBenchArm is one churn-sweep campaign. Its completion rate is a
// deterministic outcome, so it is gated at -mtol however coarse -tol is.
type ChurnBenchArm struct {
	CatchUpFlashes   int     `json:"catch_up_flashes" gate:"count"`
	ChurnRate        float64 `json:"churn_rate" gate:"fraction"`
	Completed        bool    `json:"completed"`
	CompletionRate   float64 `json:"completion_rate" gate:"higher,mtol,fraction"`
	GateDeferrals    int     `json:"gate_deferrals" gate:"count"`
	Joins            int     `json:"joins" gate:"count"`
	Key              string  `json:"key" gate:"id"`
	LeaseTicks       int     `json:"lease_ticks"`
	Leaves           int     `json:"leaves" gate:"count"`
	StaleQuarantines int     `json:"stale_quarantines" gate:"count"`
}

// Kind is how obsdiff gates a declared key.
type Kind uint8

// The gate kinds; see the gate tag words above.
const (
	Ungated Kind = iota
	Count
	Metric
	Lower
	Higher
	Verdict
)

var kindWords = map[string]Kind{"count": Count, "metric": Metric, "lower": Lower, "higher": Higher, "verdict": Verdict}

// Gate is a declared key's parsed gate tag.
type Gate struct {
	Kind Kind
	Warn bool // findings are warnings, never regressions
	MTol bool // a lower or higher key gated at -mtol
	Skip bool // a map whose keys -skip globs drop

	id, signed, fraction bool
	since                int
}

func parseGate(tag string) Gate {
	var g Gate
	flags := map[string]*bool{"warn": &g.Warn, "mtol": &g.MTol, "skip": &g.Skip,
		"id": &g.id, "signed": &g.signed, "fraction": &g.fraction}
	for _, w := range strings.Split(tag, ",") {
		v, isSince := strings.CutPrefix(w, "since=v")
		n, err := strconv.Atoi(v)
		switch k, isKind := kindWords[w]; {
		case w == "":
		case isKind:
			g.Kind = k
		case flags[w] != nil:
			*flags[w] = true
		case isSince && err == nil:
			g.since = n
		default:
			panic(fmt.Sprintf("obs: unknown gate tag word %q", w))
		}
	}
	return g
}

// decl is one declared key: its JSON type and gate, and for objects and
// collections what they hold.
type decl struct {
	name   string
	typ    string // JSON type: boolean, string, number, integer, object, array
	gate   Gate
	omit   bool    // omitempty
	fields []*decl // an object's fields, sorted by name
	elem   *decl   // a map's values, or a keyed array's elements
	key    string  // a keyed array: the field naming its elements
}

var textMarshaler = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()

// declare reads the declaration of Go type t. A slice is walked element
// by element only when its elements have an id field; other slices (span
// trees, argument lists) are checked as arrays and not descended.
func declare(t reflect.Type, name string, g Gate, omit bool) *decl {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	d := &decl{name: name, gate: g, omit: omit}
	switch k := t.Kind(); {
	case t.Implements(textMarshaler):
		d.typ = "string"
	case k == reflect.Bool:
		d.typ = "boolean"
	case k == reflect.String:
		d.typ = "string"
	case k >= reflect.Int && k <= reflect.Uint64:
		d.typ = "integer"
	case k == reflect.Float32 || k == reflect.Float64:
		d.typ = "number"
	case k == reflect.Map:
		d.typ, d.elem = "object", declare(t.Elem(), "", g, false)
	case k == reflect.Slice:
		d.typ = "array"
		if d.key = keyField(t.Elem()); d.key != "" {
			d.elem = declare(t.Elem(), "", g, false)
		}
	case k == reflect.Struct:
		d.typ = "object"
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.IsExported() && name != "-" {
				d.fields = append(d.fields, declare(f.Type, name, parseGate(f.Tag.Get("gate")), strings.Contains(opts, "omitempty")))
			}
		}
		sort.Slice(d.fields, func(i, j int) bool { return d.fields[i].name < d.fields[j].name })
	default:
		panic(fmt.Sprintf("obs: cannot declare %s of type %s", name, t))
	}
	return d
}

// keyField returns the JSON name of struct type t's id field, if any.
func keyField(t reflect.Type) string {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	for i := 0; t.Kind() == reflect.Struct && i < t.NumField(); i++ {
		if f := t.Field(i); parseGate(f.Tag.Get("gate")).id {
			return strings.Split(f.Tag.Get("json"), ",")[0]
		}
	}
	return ""
}

// A Schema is one declared artifact.
type Schema struct {
	// Name is the artifact family: the schema tag before its "/vN", or
	// "results" or "manifest" for the untagged artifacts.
	Name   string
	marker string // the top-level key that identifies an untagged artifact
	root   *decl
}

func newSchema(name, marker string, v any) *Schema {
	if family, _, ok := strings.Cut(name, "/"); ok {
		name = family
	}
	return &Schema{Name: name, marker: marker, root: declare(reflect.TypeOf(v), "", Gate{}, false)}
}

// schemas lists every declared artifact in detection order: the tagged
// ones by their tag, then a results file by its "results" array, then a
// run manifest by its "tool". It is built on first use, so programs that
// only record observability data never reflect over the declarations.
var schemas = sync.OnceValue(func() []*Schema {
	return []*Schema{
		newSchema(UarchBenchTag, "", UarchBench{}),
		newSchema(SurrogateBenchTag, "", SurrogateBench{}),
		newSchema(CtrlplaneBenchTag, "", CtrlplaneBench{}),
		newSchema(CtrlplaneChurnBenchTag, "", CtrlplaneChurnBench{}),
		newSchema("results", "results", ResultsFile{}),
		newSchema("manifest", "tool", Manifest{}),
	}
})

// Detect returns the declared schema a parsed artifact follows, or nil.
func Detect(doc map[string]any) *Schema {
	tag, _ := doc["schema"].(string)
	family, _, _ := strings.Cut(tag, "/")
	for _, s := range schemas() {
		if _, marked := doc[s.marker]; s.marker == "" && s.Name == family || s.marker != "" && marked {
			return s
		}
	}
	return nil
}

// version reads N from a document's "schema" tag ".../vN"; 0 if untagged.
func version(doc map[string]any) int {
	tag, _ := doc["schema"].(string)
	_, v, _ := strings.Cut(tag, "/v")
	n, _ := strconv.Atoi(v)
	return n
}

// A Key is one declared key as Walk meets it in the documents.
type Key struct {
	// Label names the key in findings: a dotted path of field names and
	// collection keys, such as "machines_per_sec", "A.ns_per_op" or
	// "counters.core.deployments".
	Label string
	// Name is the key itself: a field name, or an element's collection key.
	Name string
	// Coll is the label of the collection an element belongs to; "" for a
	// field.
	Coll string
	Gate Gate
	// Vals holds each document's value, nil where the key is absent.
	Vals []any
	d    *decl
}

// Walk visits every declared key of s in docs, in sorted key order. After
// a collection's visit returns true it visits the union of the
// collection's elements across docs; after an element's visit returns
// true, the element's fields. A key that a document's schema version
// predates is not visited.
func (s *Schema) Walk(docs []map[string]any, visit func(*Key) bool) {
	w := walker{visit: visit, oldest: math.MaxInt}
	for _, doc := range docs {
		w.oldest = min(w.oldest, version(doc))
	}
	w.fields(s.root, "", docs)
}

type walker struct {
	visit  func(*Key) bool
	oldest int // the oldest schema version among the documents
}

func (w *walker) fields(d *decl, prefix string, objs []map[string]any) {
	for _, f := range d.fields {
		if w.oldest < f.gate.since {
			continue
		}
		k := &Key{Label: join(prefix, f.name), Name: f.name, Gate: f.gate, Vals: make([]any, len(objs)), d: f}
		for i, o := range objs {
			k.Vals[i] = o[f.name]
		}
		if w.visit(k) && f.elem != nil {
			w.elems(f, k, prefix)
		}
	}
}

func (w *walker) elems(f *decl, coll *Key, prefix string) {
	if f.gate.Skip {
		prefix = coll.Label
	}
	index := make([]map[string]any, len(coll.Vals))
	seen := map[string]bool{}
	var names []string
	for i, v := range coll.Vals {
		index[i] = f.index(v)
		for n := range index[i] {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		k := &Key{Label: join(prefix, n), Name: n, Coll: coll.Label, Gate: f.gate, Vals: make([]any, len(index)), d: f.elem}
		objs := make([]map[string]any, len(index))
		for i := range index {
			k.Vals[i] = index[i][n]
			objs[i], _ = k.Vals[i].(map[string]any)
		}
		if w.visit(k) && f.elem.fields != nil {
			w.fields(f.elem, k.Label, objs)
		}
	}
}

// index returns a collection value's elements by key; elements without a
// string key are left out (Check reports them).
func (d *decl) index(v any) map[string]any {
	if d.typ == "object" {
		m, _ := v.(map[string]any)
		return m
	}
	out := map[string]any{}
	arr, _ := v.([]any)
	for _, e := range arr {
		if m, ok := e.(map[string]any); ok {
			if name, ok := m[d.key].(string); ok {
				out[name] = m
			}
		}
	}
	return out
}

func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// Check reports whether v, one document's value for k, fits its
// declaration: present unless optional, of the declared JSON type, and
// within the declared bounds.
func (k *Key) Check(v any) error {
	d := k.d
	if v == nil {
		if d.omit {
			return nil
		}
		return fmt.Errorf("%s: missing", k.Label)
	}
	var problem string
	switch d.typ {
	case "boolean":
		if _, ok := v.(bool); !ok {
			problem = "not a boolean"
		}
	case "string":
		if s, ok := v.(string); !ok || d.omit && s == "" {
			problem = "not a non-empty string"
		}
	case "number", "integer":
		n, ok := v.(float64)
		switch {
		case !ok:
			problem = "not a number"
		case (d.typ == "integer" || d.gate.Kind == Count) && n != math.Trunc(n):
			problem = "not an integer"
		case n < 0 && !d.gate.signed && d.gate.Kind != Metric:
			problem = "negative"
		case d.gate.fraction && n > 1:
			problem = "above 1"
		case d.omit && n == 0:
			problem = "zero, which its writer omits"
		}
	case "object":
		if m, ok := v.(map[string]any); !ok || len(m) == 0 {
			problem = "not a non-empty object"
		}
	case "array":
		arr, ok := v.([]any)
		if !ok || len(arr) == 0 {
			problem = "not a non-empty array"
		} else if d.key != "" && len(d.index(arr)) != len(arr) {
			problem = fmt.Sprintf("elements need distinct string %q keys", d.key)
		}
	}
	if problem != "" {
		return fmt.Errorf("%s: %s", k.Label, problem)
	}
	return nil
}
