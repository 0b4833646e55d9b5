package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Minimal SVG figure rendering — enough to publish the evaluation's
// bar and line figures without any dependency. The coordinate system
// is fixed (800x440 with margins); values are scaled to fit.

const (
	svgW       = 800
	svgH       = 440
	svgLeft    = 70
	svgRight   = 20
	svgTop     = 50
	svgBottom  = 70
	plotW      = svgW - svgLeft - svgRight
	plotH      = svgH - svgTop - svgBottom
	svgFont    = "ui-sans-serif, system-ui, sans-serif"
	labelAngle = 30
)

// palette cycles through distinguishable fills.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

type svgBuilder struct {
	strings.Builder
}

func (b *svgBuilder) open(title string) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		svgW, svgH, svgW, svgH)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`, svgW, svgH)
	fmt.Fprintf(b, `<text x="%d" y="28" font-family="%s" font-size="17" font-weight="bold">%s</text>`,
		svgW/2-len(title)*4, svgFont, escapeXML(title))
}

func (b *svgBuilder) axes(maxY float64, yLabel string) {
	// Y grid lines and labels at 5 ticks.
	for i := 0; i <= 5; i++ {
		y := float64(svgTop) + float64(plotH)*float64(i)/5
		v := maxY * float64(5-i) / 5
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			svgLeft, y, svgW-svgRight, y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" font-family="%s" font-size="11" text-anchor="end">%s</text>`,
			svgLeft-6, y+4, svgFont, formatTick(v))
	}
	fmt.Fprintf(b, `<text x="16" y="%d" font-family="%s" font-size="12" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`,
		svgTop+plotH/2, svgFont, svgTop+plotH/2, escapeXML(yLabel))
	// Axis lines.
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		svgLeft, svgTop, svgLeft, svgTop+plotH)
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`,
		svgLeft, svgTop+plotH, svgW-svgRight, svgTop+plotH)
}

func (b *svgBuilder) legend(names []string) {
	x := svgLeft
	y := svgH - 14
	for i, n := range names {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, y-9, palette[i%len(palette)])
		fmt.Fprintf(b, `<text x="%d" y="%d" font-family="%s" font-size="11">%s</text>`, x+14, y, svgFont, escapeXML(n))
		x += 14 + 7*len(n) + 18
	}
}

func (b *svgBuilder) close() { b.WriteString("</svg>") }

func formatTick(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) < 0.01 || math.Abs(v) >= 10000:
		return fmt.Sprintf("%.1e", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SVGGroupedBars renders a grouped bar chart: one group per label, one
// bar per series (in seriesOrder) within each group. Values must be
// non-negative; every series must have len(labels) values.
func SVGGroupedBars(title, yLabel string, labels []string, series map[string][]float64, seriesOrder []string) (string, error) {
	if len(labels) == 0 || len(seriesOrder) == 0 {
		return "", fmt.Errorf("report: empty figure")
	}
	maxY := 0.0
	for _, name := range seriesOrder {
		vals, ok := series[name]
		if !ok || len(vals) != len(labels) {
			return "", fmt.Errorf("report: series %q missing or wrong length", name)
		}
		for _, v := range vals {
			if v < 0 {
				return "", fmt.Errorf("report: negative bar value in %q", name)
			}
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	maxY *= 1.05

	var b svgBuilder
	b.open(title)
	b.axes(maxY, yLabel)

	groupW := float64(plotW) / float64(len(labels))
	barW := groupW * 0.8 / float64(len(seriesOrder))
	for gi, label := range labels {
		gx := float64(svgLeft) + groupW*float64(gi) + groupW*0.1
		for si, name := range seriesOrder {
			v := series[name][gi]
			h := float64(plotH) * v / maxY
			x := gx + barW*float64(si)
			y := float64(svgTop+plotH) - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s / %s: %.4g</title></rect>`,
				x, y, barW, h, palette[si%len(palette)], escapeXML(label), escapeXML(name), v)
		}
		lx := gx + groupW*0.4
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="%s" font-size="11" text-anchor="end" transform="rotate(-%d %.1f %d)">%s</text>`,
			lx, svgTop+plotH+16, svgFont, labelAngle, lx, svgTop+plotH+16, escapeXML(label))
	}
	b.legend(seriesOrder)
	b.close()
	return b.String(), nil
}

// SVGStepLines renders step lines (one per series) over a shared x
// axis — the shape of the dynamic partition's allocation trajectory.
func SVGStepLines(title, yLabel string, xs []float64, series map[string][]float64, seriesOrder []string) (string, error) {
	if len(xs) < 2 || len(seriesOrder) == 0 {
		return "", fmt.Errorf("report: need at least two points")
	}
	maxY, maxX, minX := 0.0, xs[0], xs[0]
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
		if x < minX {
			minX = x
		}
	}
	if maxX == minX {
		return "", fmt.Errorf("report: degenerate x range")
	}
	for _, name := range seriesOrder {
		vals, ok := series[name]
		if !ok || len(vals) != len(xs) {
			return "", fmt.Errorf("report: series %q missing or wrong length", name)
		}
		for _, v := range vals {
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	maxY *= 1.1

	var b svgBuilder
	b.open(title)
	b.axes(maxY, yLabel)

	px := func(x float64) float64 {
		return float64(svgLeft) + float64(plotW)*(x-minX)/(maxX-minX)
	}
	py := func(v float64) float64 {
		return float64(svgTop+plotH) - float64(plotH)*v/maxY
	}
	for si, name := range seriesOrder {
		vals := series[name]
		var path strings.Builder
		fmt.Fprintf(&path, "M %.1f %.1f", px(xs[0]), py(vals[0]))
		for i := 1; i < len(xs); i++ {
			// Step: horizontal to the new x, then vertical.
			fmt.Fprintf(&path, " L %.1f %.1f L %.1f %.1f", px(xs[i]), py(vals[i-1]), px(xs[i]), py(vals[i]))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2"/>`, path.String(), palette[si%len(palette)])
	}
	// X tick labels at 5 positions.
	for i := 0; i <= 5; i++ {
		x := minX + (maxX-minX)*float64(i)/5
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="%s" font-size="11" text-anchor="middle">%s</text>`,
			px(x), svgTop+plotH+16, svgFont, formatTick(x))
	}
	b.legend(seriesOrder)
	b.close()
	return b.String(), nil
}

// sortedSeriesNames returns map keys in deterministic order, for
// callers that have no natural ordering.
func sortedSeriesNames(series map[string][]float64) []string {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
