// Package report renders experiment results as standalone SVG charts, so
// the regenerated figures can be viewed next to the paper's. Stdlib-only:
// the SVG is assembled textually.
package report

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// BarChart renders horizontal bars (e.g. Figure 7's per-benchmark
// residency profile).
type BarChart struct {
	Title  string
	Labels []string
	Values []float64 // in [0,1] when Percent, else any non-negative scale
	// Percent formats values as percentages and fixes the axis at 100%.
	Percent bool
}

// WriteSVG emits the chart.
func (c *BarChart) WriteSVG(w io.Writer) error {
	if len(c.Labels) != len(c.Values) {
		return fmt.Errorf("report: %d labels vs %d values", len(c.Labels), len(c.Values))
	}
	const (
		rowH     = 22
		labelW   = 180
		plotW    = 420
		topPad   = 40
		botPad   = 16
		fontSize = 12
	)
	height := topPad + rowH*len(c.Values) + botPad
	width := labelW + plotW + 60

	maxV := 1.0
	if !c.Percent {
		maxV = 0
		for _, v := range c.Values {
			if v > maxV {
				maxV = v
			}
		}
		if maxV == 0 {
			maxV = 1
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="15" font-weight="bold">%s</text>`+"\n", 10, escape(c.Title))
	for i, v := range c.Values {
		y := topPad + i*rowH
		barLen := int(float64(plotW) * v / maxV)
		if barLen < 0 {
			barLen = 0
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="%d" text-anchor="end">%s</text>`+"\n",
			labelW-6, y+fontSize+2, fontSize, escape(c.Labels[i]))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4878a8"/>`+"\n",
			labelW, y+3, barLen, rowH-8)
		val := fmt.Sprintf("%.3g", v)
		if c.Percent {
			val = fmt.Sprintf("%.1f%%", 100*v)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="%d">%s</text>`+"\n",
			labelW+barLen+4, y+fontSize+2, fontSize, val)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ScatterChart renders labelled points (e.g. Figure 8's PPW-vs-RSV plane
// or Figure 6's mean-vs-std screen).
type ScatterChart struct {
	Title          string
	XLabel, YLabel string
	Points         []ScatterPoint
}

// ScatterPoint is one labelled sample.
type ScatterPoint struct {
	Label string
	X, Y  float64
}

// WriteSVG emits the chart with auto-scaled axes.
func (c *ScatterChart) WriteSVG(w io.Writer) error {
	if len(c.Points) == 0 {
		return fmt.Errorf("report: empty scatter")
	}
	const (
		width  = 560
		height = 400
		pad    = 60
	)
	minX, maxX := c.Points[0].X, c.Points[0].X
	minY, maxY := c.Points[0].Y, c.Points[0].Y
	for _, p := range c.Points[1:] {
		minX, maxX = minf(minX, p.X), maxf(maxX, p.X)
		minY, maxY = minf(minY, p.Y), maxf(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	sx := func(x float64) float64 { return pad + (x-minX)/(maxX-minX)*(width-2*pad) }
	sy := func(y float64) float64 { return height - pad - (y-minY)/(maxY-minY)*(height-2*pad) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="10" y="20" font-size="15" font-weight="bold">%s</text>`+"\n", escape(c.Title))
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n", pad, height-pad, width-pad, height-pad)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n", pad, pad, pad, height-pad)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
		width/2, height-14, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-size="12" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		height/2, height/2, escape(c.YLabel))
	// Range annotations.
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%.3g</text>`+"\n", pad, height-pad+14, minX)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%.3g</text>`+"\n", width-pad, height-pad+14, maxX)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%.3g</text>`+"\n", pad-4, height-pad, minY)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" text-anchor="end">%.3g</text>`+"\n", pad-4, pad+4, maxY)
	for _, p := range c.Points {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="#a8484f"/>`+"\n", sx(p.X), sy(p.Y))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11">%s</text>`+"\n",
			sx(p.X)+7, sy(p.Y)+4, escape(p.Label))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// escape returns s as XML character data. Characters XML 1.0 forbids
// become U+FFFD, so any label yields a well-formed document.
func escape(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s)) // a strings.Builder never fails
	return b.String()
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
