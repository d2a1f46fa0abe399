package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "p50_us", Better: "lower", Bound: 0.08}
	higher := specMetric{Name: "kops", Better: "higher", Bound: 0.08}
	steady := func(v float64) metric { return metric{Value: v, Reps: []float64{v * 0.99, v, v * 1.01}} }
	noisy := func(v float64) metric { return metric{Value: v, Reps: []float64{v * 0.8, v, v * 1.2}} }
	for _, c := range []struct {
		name string
		m    specMetric
		a, b metric
		want string
	}{
		{"lower-is-better got lower", lower, steady(100), steady(80), better},
		{"lower-is-better got higher", lower, steady(100), steady(120), worse},
		{"inside the bound", lower, steady(100), steady(105), within},
		{"higher-is-better got higher", higher, steady(50), steady(60), better},
		{"higher-is-better got lower", higher, steady(50), steady(40), worse},
		{"worse but the baseline is noisy", lower, noisy(100), steady(120), unresolved},
		{"better but the candidate is noisy", higher, steady(50), noisy(60), unresolved},
		{"noisy but inside the bound", lower, noisy(100), noisy(103), within},
		{"both zero", lower, metric{}, metric{}, within},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 100, 110}, 100); got < 0.199 || got > 0.201 {
		t.Errorf("range spread of three = %v, want 0.2", got)
	}
	// Five repetitions: quartiles 2 and 4 of 1..5, an outlier at either
	// end does not widen it.
	if got := spread([]float64{1, 2, 3, 4, 50}, 3); got < 0.666 || got > 0.667 {
		t.Errorf("interquartile spread of five = %v, want 2/3", got)
	}
	if got := spread([]float64{7}, 7); got != 0 {
		t.Errorf("spread of one = %v", got)
	}
}

func TestDiffCountsWorseRows(t *testing.T) {
	s := spec{EndToEnd: []specMetric{
		{Name: "kops", Better: "higher", Bound: 0.08},
		{Name: "p50_us", Better: "lower", Bound: 0.08},
	}}
	side := func(kops, p50 float64, failed int64) result {
		return result{Workloads: []workload{{Name: "tcp-read", Failed: failed, EndToEnd: map[string]metric{
			"kops": {Value: kops}, "p50_us": {Value: p50},
		}}}}
	}
	var out strings.Builder
	if n := diff(&out, s, side(60, 25, 0), side(61, 24, 0)); n != 0 {
		t.Errorf("same-ish runs: %d worse\n%s", n, out.String())
	}
	out.Reset()
	if n := diff(&out, s, side(60, 25, 0), side(50, 30, 1)); n != 3 {
		t.Errorf("slower, laggier and failing: %d worse, want 3\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "tcp-read") || !strings.Contains(out.String(), "worse") {
		t.Errorf("rows missing from output:\n%s", out.String())
	}
}
