// Command rcbench regenerates the tables and figures of "Characterizing
// Performance and Energy-Efficiency of The RAMCloud Storage System"
// (ICDCS 2017) on the simulated testbed.
//
// Standard output (or the -o file) carries only the renderings, so it is
// a determinism fixture: two runs of the same binary must be
// byte-identical, and neither a simulation-core refactor nor the -j level
// may change it (diff against a pre-change capture, and -j 8 against
// -j 1). Wall-clock timings go to standard error.
//
// Usage:
//
//	rcbench -list                 # show available experiments
//	rcbench -exp table2,fig5      # run selected experiments
//	rcbench -all                  # run everything (several minutes)
//	rcbench -all -scale 2 -o out  # longer runs, write to a file
//	rcbench -all -scale 0.5 -seed 42 -j 8 > golden.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ramcloud/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with the arguments, output streams and exit status made
// explicit so a test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list experiments and exit")
		exps  = fs.String("exp", "", "comma-separated experiment ids")
		all   = fs.Bool("all", false, "run every experiment")
		scale = fs.Float64("scale", 1.0, "request/record scale (1.0 = standard reproduction)")
		seed  = fs.Int64("seed", 42, "simulation seed")
		out   = fs.String("o", "", "write results to file instead of stdout")
		j     = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent scenario simulations (1 = fully serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-12s %s\n             %s\n", e.ID, e.Title, e.Setup)
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	case *exps != "":
		ids = strings.Split(*exps, ",")
	default:
		fmt.Fprintln(stderr, "rcbench: nothing to do; use -list, -exp or -all")
		return 2
	}

	// Resolve every id before -o is created: a typo must not truncate a
	// results file that already exists.
	var selected []core.Experiment
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := core.ByID(id)
		if !ok {
			fmt.Fprintf(stderr, "rcbench: unknown experiment %q (try -list)\n", id)
			return 2
		}
		selected = append(selected, e)
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "rcbench: %v\n", err)
			return 1
		}
		w = f
	}
	core.SetParallelism(*j)
	err := render(w, stderr, selected, core.Options{Scale: *scale, Seed: *seed}, *j)
	if f != nil {
		// A short file must not hide behind exit status 0.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "rcbench: %v\n", err)
		return 1
	}
	return 0
}

// render runs the selected experiments and writes each rendering to w and
// its wall clock to timings, stopping at the first write error to w.
func render(w, timings io.Writer, selected []core.Experiment, opts core.Options, j int) error {
	warmable := 0
	for _, e := range selected {
		if e.Scenarios != nil {
			warmable++
		}
	}
	if j > 1 && warmable > 0 {
		// Run every scenario of every requested experiment on the worker
		// pool up front; the sequential render below then hits a warm memo,
		// so its output is byte-identical to a -j 1 run, and the
		// per-experiment timings measure rendering (the prewarm line
		// reports the simulation cost once). Experiments without a
		// scenario grid (fig10's custom loop) still pay in their own line.
		start := time.Now()
		core.NewRunner(j).Prewarm(selected, opts)
		fmt.Fprintf(timings, "(prewarmed %d of %d experiments on %d workers in %.1fs wall clock)\n",
			warmable, len(selected), j, time.Since(start).Seconds())
	}
	for _, e := range selected {
		start := time.Now()
		res := e.Run(opts)
		if _, err := fmt.Fprintln(w, res.Render()); err != nil {
			return err
		}
		fmt.Fprintf(timings, "(%s completed in %.1fs wall clock)\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}
