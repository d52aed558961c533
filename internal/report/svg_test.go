package report

import (
	"strings"
	"testing"
)

func TestBarChartSVG(t *testing.T) {
	c := &BarChart{
		Title:   "Figure 7: ideal residency",
		Labels:  []string{"bwaves", "x264 <&>", "ctl\x01\uFFFE"},
		Values:  []float64{0.86, 0.09, 0.5},
		Percent: true,
	}
	var sb strings.Builder
	if err := c.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := wellFormed([]byte(out)); err != nil {
		t.Errorf("malformed SVG: %v", err)
	}
	for _, want := range []string{"<svg", "</svg>", "bwaves", "86.0%", "x264 &lt;&amp;&gt;", "ctl\uFFFD\uFFFD"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Contains(out, "<&>") {
		t.Error("unescaped markup in SVG")
	}
}

func TestBarChartMismatch(t *testing.T) {
	c := &BarChart{Labels: []string{"a"}, Values: []float64{1, 2}}
	if err := c.WriteSVG(&strings.Builder{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestScatterChartSVG(t *testing.T) {
	c := &ScatterChart{
		Title: "Figure 8", XLabel: "RSV (%)", YLabel: "PPW gain (%)",
		Points: []ScatterPoint{
			{Label: "best-rf", X: 0.3, Y: 21.9},
			{Label: "charstar", X: 10.9, Y: 18.4},
		},
	}
	var sb strings.Builder
	if err := c.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"best-rf", "charstar", "circle", "RSV"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q", want)
		}
	}
}

func TestScatterEmpty(t *testing.T) {
	if err := (&ScatterChart{}).WriteSVG(&strings.Builder{}); err == nil {
		t.Error("empty scatter accepted")
	}
}

func TestScatterDegenerateRange(t *testing.T) {
	c := &ScatterChart{Points: []ScatterPoint{{Label: "only", X: 1, Y: 1}}}
	var sb strings.Builder
	if err := c.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Error("degenerate-range point not rendered")
	}
}
