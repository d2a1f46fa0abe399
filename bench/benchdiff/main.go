// Command benchdiff compares two result files written by the bench
// harness, with each end-to-end metric's direction and regression bound
// read from BENCHMARK.json:
//
//	go run ./bench/benchdiff [-spec BENCHMARK.json] A.json B.json
//
// A is the baseline and B the candidate. One row is printed per
// (workload, metric): better, within bound, worse, or unresolved when
// either side's repetitions spread wider than the bound, so that the
// difference cannot be told from noise. The exit code is 1 if any row is
// worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps"`
}

type workload struct {
	Name     string            `json:"name"`
	Failed   int64             `json:"failed"`
	EndToEnd map[string]metric `json:"end_to_end"`
}

type result struct {
	Workloads []workload `json:"workloads"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the width of the repetitions relative to their median: the
// interquartile distance with four or more repetitions, else the range.
func spread(reps []float64, median float64) float64 {
	if len(reps) < 2 || median == 0 {
		return 0
	}
	s := append([]float64(nil), reps...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	w := (hi - lo) / median
	if w < 0 {
		w = -w
	}
	return w
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

const (
	better     = "better"
	within     = "within bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge classifies the change of one metric from a to b. change is the
// relative change in the direction that is worse (positive = worse).
func judge(m specMetric, a, b metric) (verdict string, change float64) {
	if a.Value == 0 {
		if b.Value == 0 {
			return within, 0
		}
		return unresolved, 0
	}
	change = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		change = -change
	}
	noisy := spread(a.Reps, a.Value) > m.Bound || spread(b.Reps, b.Value) > m.Bound
	switch {
	case change > m.Bound && noisy:
		return unresolved, change
	case change > m.Bound:
		return worse, change
	case change < -m.Bound && noisy:
		return unresolved, change
	case change < -m.Bound:
		return better, change
	default:
		return within, change
	}
}

// diff prints one row per (workload, metric) present on both sides and
// returns how many were worse.
func diff(w io.Writer, s spec, a, b result) int {
	byName := make(map[string]workload)
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	nWorse := 0
	fmt.Fprintf(w, "%-11s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-11s %-18s %14d %14d %8s %7s  %s\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "", worse)
			nWorse++
		}
		for _, m := range s.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			verdict, change := judge(m, ma, mb)
			if verdict == worse {
				nWorse++
			}
			fmt.Fprintf(w, "%-11s %-18s %14.4f %14.4f %+7.1f%% %6.1f%%  %s\n",
				wa.Name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, verdict)
		}
	}
	return nWorse
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with directions and bounds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] A.json B.json  (change is positive when B is worse)")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var s spec
	var a, b result
	for _, f := range []struct {
		path string
		into any
	}{{*specPath, &s}, {flag.Arg(0), &a}, {flag.Arg(1), &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	}
	if n := diff(os.Stdout, s, a, b); n > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) worse than the bound\n", n)
		os.Exit(1)
	}
}
