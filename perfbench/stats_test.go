package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3, 7, 11, 2, 8, 6, 4}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: the function must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// p95 of 200 samples is rank 190, with exactly 10 beyond it.
	v, err := tailPercentile(seq(200), 0.95)
	if err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	// 199 samples leave 9 beyond rank 190: refused.
	if _, err := tailPercentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples: want an error (9 beyond)")
	}
	// p50 needs 20 samples.
	if v, err := tailPercentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := tailPercentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples: want an error")
	}
	if _, err := tailPercentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func TestCheckMetric(t *testing.T) {
	good := []struct{ name, unit string }{
		{"execs_per_s", "1/s"}, {"core.step_s", "s"}, {"9lives", "count"},
		{"a-b.c_d", "%"}, {"x", "MB"},
	}
	for _, g := range good {
		if err := checkMetric(g.name, metric{Value: 1, Unit: g.unit}); err != nil {
			t.Errorf("%s [%s]: %v", g.name, g.unit, err)
		}
	}
	bad := []struct {
		name, unit string
		v          float64
	}{
		{"", "s", 1},
		{"_lead", "s", 1},
		{".lead", "s", 1},
		{"has space", "s", 1},
		{"slash/name", "s", 1},
		{"x", "", 1},
		{"x", "per second", 1},
		{"x", "abcdefghijklmnopq", 1}, // 17 letters
		{"x", "s", math.NaN()},
		{"x", "s", math.Inf(1)},
		{string(make([]byte, 65)), "s", 1},
	}
	for _, b := range bad {
		if err := checkMetric(b.name, metric{Value: b.v, Unit: b.unit}); err == nil {
			t.Errorf("%q [%s] %v: want an error", b.name, b.unit, b.v)
		}
	}
	long := "a"
	for len(long) < 64 {
		long += "b"
	}
	if err := checkMetric(long, metric{Value: 1, Unit: "s"}); err != nil {
		t.Errorf("64-letter name: %v", err)
	}
}

// TestDeclaredMetrics keeps the metric lists here and in
// BENCHMARK.json at the repository root identical, and every declared
// name and unit valid.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		code []spec
		decl []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.code) != len(c.decl) {
			t.Errorf("%s: %d metrics in code, %d declared", c.what, len(c.code), len(c.decl))
			continue
		}
		for i, s := range c.code {
			if s.name != c.decl[i].Name || s.unit != c.decl[i].Unit {
				t.Errorf("%s[%d]: code %s [%s], declared %s [%s]", c.what, i, s.name, s.unit, c.decl[i].Name, c.decl[i].Unit)
			}
			if err := checkMetric(s.name, metric{Value: 1, Unit: s.unit}); err != nil {
				t.Error(err)
			}
		}
	}
}
