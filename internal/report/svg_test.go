package report

import (
	"strings"
	"testing"
)

func TestSVGGroupedBars(t *testing.T) {
	labels := []string{"browser", "email"}
	series := map[string][]float64{
		"sp-mr": {0.19, 0.18},
		"dp-sr": {0.15, 0.13},
	}
	svg, err := SVGGroupedBars("Normalized L2 energy", "normalized", labels, series, []string{"sp-mr", "dp-sr"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// 2 groups x 2 series = 4 bars plus the background rect and legend
	// swatches.
	if n := strings.Count(svg, "<rect"); n < 4+1+2 {
		t.Fatalf("rect count = %d, want >= 7", n)
	}
	for _, want := range []string{"Normalized L2 energy", "browser", "email", "sp-mr", "dp-sr"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestSVGGroupedBarsErrors(t *testing.T) {
	if _, err := SVGGroupedBars("t", "y", nil, nil, nil); err == nil {
		t.Fatal("empty figure accepted")
	}
	if _, err := SVGGroupedBars("t", "y", []string{"a"}, map[string][]float64{"s": {1, 2}}, []string{"s"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SVGGroupedBars("t", "y", []string{"a"}, map[string][]float64{"s": {-1}}, []string{"s"}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := SVGGroupedBars("t", "y", []string{"a"}, map[string][]float64{}, []string{"missing"}); err == nil {
		t.Fatal("missing series accepted")
	}
}

func TestSVGGroupedBarsAllZero(t *testing.T) {
	svg, err := SVGGroupedBars("t", "y", []string{"a"}, map[string][]float64{"s": {0}}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") {
		t.Fatal("zero-valued chart broken")
	}
}

func TestSVGStepLines(t *testing.T) {
	xs := []float64{0, 100, 200, 300}
	series := map[string][]float64{
		"user":   {2, 4, 6, 6},
		"kernel": {2, 3, 4, 4},
	}
	svg, err := SVGStepLines("Partition trajectory", "ways", xs, series, []string{"user", "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<path") != 2 {
		t.Fatalf("path count = %d, want 2", strings.Count(svg, "<path"))
	}
	if !strings.Contains(svg, "Partition trajectory") {
		t.Fatal("title missing")
	}
}

func TestSVGStepLinesErrors(t *testing.T) {
	if _, err := SVGStepLines("t", "y", []float64{1}, nil, []string{"s"}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := SVGStepLines("t", "y", []float64{1, 1}, map[string][]float64{"s": {1, 2}}, []string{"s"}); err == nil {
		t.Fatal("degenerate x range accepted")
	}
	if _, err := SVGStepLines("t", "y", []float64{1, 2}, map[string][]float64{"s": {1}}, []string{"s"}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSVGEscaping(t *testing.T) {
	svg, err := SVGGroupedBars(`<&"title>`, "y", []string{"a<b"}, map[string][]float64{"s&t": {1}}, []string{"s&t"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, `<&"title>`) || strings.Contains(svg, ">a<b<") {
		t.Fatal("XML not escaped")
	}
	if !strings.Contains(svg, "&amp;") || !strings.Contains(svg, "&lt;") {
		t.Fatal("escapes missing")
	}
}
