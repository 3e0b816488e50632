package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.5, 5},
		{10, 0.9, 9},
		{10, 0.99, 10},
		{10, 0.1, 1},
		{10, 1, 10},
		// ceil(0.99·1000)-1 = 989: the 990th value. Truncating p·n to an
		// index (990) would give 991.
		{1000, 0.99, 990},
		{1000, 0.5, 500},
		{1, 0.99, 1},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99}, // values 991..1000 lie beyond the 990th
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{40, 0.75},
		{20, 0.5},
		{19, 0},
		{0, 0},
	} {
		got := supportedTail(c.n)
		if got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := c.n - 1 - rankIndex(c.n, got); beyond < minBeyond {
				t.Errorf("supportedTail(%d) = %g leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := mean([]float64{3, 1, 2, 6}); got != 3 {
		t.Errorf("mean = %g", got)
	}
	if got := mean(nil); !math.IsNaN(got) {
		t.Errorf("mean of nothing = %g, want NaN", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name string
		kids []interval
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 60}}, 70},
		// Parallel children overlapping on [30,50]: the union covers 60,
		// so self time is 40; subtracting the sum (80) would give 20.
		{"overlapping", []interval{{30, 70}, {10, 50}}, 40},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpeedupAndRate(t *testing.T) {
	if got := speedup(1200, 800); got != 1.5 {
		t.Errorf("speedup(1200, 800) = %g", got)
	}
	if got := speedup(1200, 0); got != 0 {
		t.Errorf("speedup with a zero parallel time = %g", got)
	}
	if got := rate(1000, 2000); got != 500 {
		t.Errorf("rate(1000, 2000 ms) = %g", got)
	}
	if got := rate(1000, 0); got != 0 {
		t.Errorf("rate over no time = %g", got)
	}
}

func TestMeanOfMedians(t *testing.T) {
	classes := map[string][]float64{
		"hit":  {0.1, 0.2, 0.3, 0.2, 9},   // median 0.2; the 9 ms stall does not count
		"miss": {2, 1, 3, 100, 2, 2, 1.5}, // median 2
	}
	if got, want := meanOfMedians(classes), (5*0.2+7*2.0)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("meanOfMedians = %g, want %g", got, want)
	}
	if got := meanOfMedians(nil); !math.IsNaN(got) {
		t.Errorf("meanOfMedians of nothing = %g, want NaN", got)
	}
	if got := sortedKeys(classes); len(got) != 2 || got[0] != "hit" || got[1] != "miss" {
		t.Errorf("sortedKeys = %v", got)
	}
}

func TestTracerGroupsAndChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", 0)
	a := tr.begin("a", root)
	b := tr.begin("b", a)
	tr.end(b)
	tr.end(a)
	open := tr.begin("open", root)
	tr.end(root)
	other := tr.begin("other", 0)
	tr.end(other)
	if g := tr.spans[b-1].Group; g != root {
		t.Errorf("grandchild group = %d, want %d", g, root)
	}
	if g := tr.spans[other-1].Group; g != other {
		t.Errorf("second root group = %d, want %d", g, other)
	}
	if kids := tr.children(root); len(kids) != 1 {
		t.Errorf("root has %d closed children, want 1 (span %d is still open)", len(kids), open)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, known)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
