// Command bench is the repository's benchmark: six named workloads over
// the in-process TCP cluster and the deterministic simulator, end-to-end
// metrics measured untraced, and a separate traced run that explains them
// layer by layer. README.md in this directory defines every workload,
// metric and layer name.
//
// Usage:
//
//	go run ./bench [-workload NAME|all] [-seed N] [-reps N] [-seconds S] [-trace 0|1] [-out FILE]
//
// Without -trace both phases run: the untraced repetitions, then the
// traced run. -trace 0 runs only the first and -trace 1 only the second.
// Every metric is printed as "workload metric value unit" and written as
// JSON with an env block; with a single workload the last line of
// standard output is the result object BENCHMARK.json's contract asks
// for. The exit code is non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const outDir = "bench/out"

// options are one invocation's settings.
type options struct {
	seed     int64
	reps     int           // > 0: exactly this many repetitions
	seconds  time.Duration // > 0: whole repetitions until this much is measured, at least minReps
	endToEnd bool          // run the untraced repetitions
	layers   bool          // run the traced per-layer run
	ops      int           // > 0: shrink every repetition to about this many ops (tests)
	outDir   string        // span files
}

const minReps = 3

// ladderDiv shrinks the ladder's iteration counts along with the ops.
func (o options) ladderDiv() int {
	if o.ops > 0 {
		return 100
	}
	return 1
}

// more reports whether another repetition is due after done of them
// measured for so long. Repetitions have a fixed op count (see tcpSpec),
// so -seconds buys whole repetitions, never a longer one.
func (o options) more(done, specReps int, measured time.Duration) bool {
	switch {
	case o.reps > 0:
		return done < o.reps
	case o.seconds > 0:
		return done < minReps || measured < o.seconds
	default:
		return done < specReps
	}
}

// metric is one reported value: the median over repetitions, the
// per-repetition values behind it, and for a percentile the number of
// samples in each repetition.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Reps    []float64 `json:"reps,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	names []string
	byKey map[string]metric
}

func (s *metricSet) put(name string, m metric) {
	if s.byKey == nil {
		s.byKey = make(map[string]metric)
	}
	if _, ok := s.byKey[name]; !ok {
		s.names = append(s.names, name)
	}
	s.byKey[name] = m
}

// reps records a listed metric as the median of its per-repetition values.
func (s *metricSet) reps(name string, vals []float64, samples int) {
	s.put(name, metric{Value: median(vals), Unit: units[name], Reps: vals, Samples: samples})
}

// one records a listed metric measured once.
func (s *metricSet) one(name string, v float64) { s.put(name, metric{Value: v, Unit: units[name]}) }

// extra records a metric BENCHMARK.json does not list, with its unit.
func (s *metricSet) extra(name, unit string, v float64) { s.put(name, metric{Value: v, Unit: unit}) }

func (s metricSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.byKey) }

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string    `json:"name"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
	// Extra holds the layer metrics that exist only on this workload's
	// half of the system and carry a time unit (see README.md, "Layer
	// metrics outside BENCHMARK.json").
	Extra metricSet `json:"per_layer_extra"`
}

func (r *workloadResult) fail(n int, why string) {
	r.Failed += int64(n)
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, why)
	}
}

func (r *workloadResult) print() {
	for _, set := range []metricSet{r.EndToEnd, r.PerLayer, r.Extra} {
		for _, name := range set.names {
			m := set.byKey[name]
			fmt.Printf("%s %s %s %s\n", r.Name, name, formatValue(m.Value), m.Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Printf("%s FAILED %s\n", r.Name, e)
	}
}

// formatValue prints a measured value with all its digits.
func formatValue(v float64) string {
	b, _ := json.Marshal(v) // shortest representation that round-trips
	return string(b)
}

// env describes where and how a result was measured.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Started    string `json:"started"`
}

func readEnv(seed int64) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", Seed: seed, Started: time.Now().UTC().Format(time.RFC3339),
	}
	// A benchmark checkout need not be a git repository; "unknown" then.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

type resultFile struct {
	Env       env               `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// contractLine is the object the benchmark contract wants on the last
// line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for _, s := range tcpSpecs {
		names = append(names, s.name)
	}
	for _, s := range simSpecs {
		names = append(names, s.name)
	}
	return names
}

// runWorkload runs one workload's requested phases.
func runWorkload(name string, o options) (*workloadResult, error) {
	for _, s := range tcpSpecs {
		if s.name == name {
			return runTCPWorkload(s, o)
		}
	}
	for _, s := range simSpecs {
		if s.name == name {
			return runSimWorkload(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames(), ", "))
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 42, "seed of the generated inputs")
		reps     = flag.Int("reps", 0, "repetitions per workload (0: the workload's default, or as many as -seconds buys)")
		seconds  = flag.Float64("seconds", 0, "measure whole repetitions until this many seconds are measured (at least 3)")
		trace    = flag.Int("trace", -1, "0: untraced end-to-end run only; 1: traced per-layer run only; default both")
		out      = flag.String("out", "", "result file (default bench/out/result-<workload>.json)")
	)
	flag.Parse()
	if *trace < -1 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	o := options{
		seed: *seed, reps: *reps, seconds: time.Duration(*seconds * float64(time.Second)),
		endToEnd: *trace != 1, layers: *trace != 0, outDir: outDir,
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	file := resultFile{Env: readEnv(*seed)}
	var failed int64
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print()
		failed += res.Failed
		file.Workloads = append(file.Workloads, res)
	}

	path := *out
	if path == "" {
		path = filepath.Join(o.outDir, "result-"+*workload+".json")
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: write result: %v\n", err)
		os.Exit(1)
	}

	if len(file.Workloads) == 1 {
		res := file.Workloads[0]
		line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
		sets := []metricSet{res.EndToEnd}
		if *trace == 1 {
			sets = []metricSet{res.PerLayer}
		} else if *trace == -1 {
			sets = append(sets, res.PerLayer)
		}
		for _, set := range sets {
			for name, m := range set.byKey {
				line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
			}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
