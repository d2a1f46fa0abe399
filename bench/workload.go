package main

import (
	"math/rand"
	"time"

	"ramcloud/internal/realnode"
	"ramcloud/internal/ycsb"
)

// Dataset shared by every TCP workload. At least 8,192 sequential YCSB
// keys are needed before FNV-1a spreads them over all three tablet ranges
// (ROADMAP's short-key hazard); at 20,000 the busiest server takes ~0.37
// of the ops.
const (
	records    = 20_000
	recordSize = 1024
	nServers   = 3
	nWorkers   = 2
	warmupOps  = 2_000

	// latencyLimit is the service-level limit behind within_limit_frac:
	// an op counts only if it completed OK within this long of its
	// intended send time.
	latencyLimit = time.Millisecond
)

type driveMode int

const (
	modeSync  driveMode = iota // closed loop, one Get/Put at a time per worker
	modeBatch                  // closed loop, MultiRead/MultiWrite rounds per worker
	modeOpen                   // open loop at a fixed rate, GetAsync/PutAsync
)

// tcpSpec describes one workload over the in-process TCP cluster. ops is
// the fixed op count of one repetition: the real master has no cleaner,
// so its log and heap grow with every write and a repetition is only
// comparable with another of the same length on a fresh cluster.
type tcpSpec struct {
	name string
	mix  ycsb.Workload
	mode driveMode
	ops  int // per repetition, across workers (open loop: ramp + measured)
	reps int // default repetitions for a full run

	batch int // modeBatch: ops per round

	rate    float64       // modeOpen: offered ops/s
	ramp    time.Duration // modeOpen: unmeasured lead-in
	measure time.Duration // modeOpen: measured span
}

func zipf(w ycsb.Workload) ycsb.Workload {
	w.Dist = ycsb.Zipfian
	return w
}

const (
	openRate    = 30_000
	openRamp    = time.Second
	openMeasure = 8 * time.Second
)

var tcpSpecs = []tcpSpec{
	{name: "tcp-read", mix: zipf(ycsb.WorkloadC(records, recordSize)), mode: modeSync, ops: 200_000, reps: 5},
	{name: "tcp-update", mix: zipf(ycsb.WorkloadA(records, recordSize)), mode: modeSync, ops: 150_000, reps: 5},
	{name: "tcp-batch", mix: zipf(ycsb.WorkloadB(records, recordSize)), mode: modeBatch, ops: 640_000, reps: 5, batch: 32},
	{name: "tcp-open", mix: zipf(ycsb.WorkloadB(records, recordSize)), mode: modeOpen, reps: 3,
		ops:  int(openRate * (openRamp + openMeasure) / time.Second),
		rate: openRate, ramp: openRamp, measure: openMeasure},
}

// scaled returns the spec shrunk to n ops per repetition over n records —
// the tests' tiny shape, slow enough to hold under the race detector.
// Measurements never scale: comparing runs of different lengths is
// exactly what the fixed op counts exist to prevent.
func (s tcpSpec) scaled(n int) tcpSpec {
	s.ops = n
	s.mix.RecordCount = min(n, s.mix.RecordCount)
	if s.mode == modeOpen {
		s.rate = 1_000
		s.ops = min(n, 400)
		s.ramp = time.Duration(float64(s.ops) / 4 / s.rate * float64(time.Second))
		s.measure = 3 * s.ramp
	}
	return s
}

// dataset is the immutable key and value table, built once per run from
// the record index alone: every write of record i stores vals[i], so a
// read can be byte-compared without tracking which write it observed.
type dataset struct {
	keys [][]byte
	vals [][]byte
}

func buildDataset(w ycsb.Workload) *dataset {
	d := &dataset{keys: make([][]byte, w.RecordCount), vals: make([][]byte, w.RecordCount)}
	for i := range d.keys {
		d.keys[i] = ycsb.Key(i)
		d.vals[i] = realnode.Value(w, i)
	}
	return d
}

// opStream is one driver goroutine's pre-generated operations: which
// record, and whether to read or write it. Streams are drawn from the
// seed before any timed window opens, so the generators' cost (zipfian
// pow(), key formatting) never lands in a measurement.
type opStream struct {
	rec  []int32
	read []bool
}

func (s opStream) len() int { return len(s.rec) }

func (s opStream) slice(from, to int) opStream {
	return opStream{rec: s.rec[from:to], read: s.read[from:to]}
}

func genStream(w ycsb.Workload, seed int64, n int) opStream {
	rng := rand.New(rand.NewSource(seed))
	ch := w.NewChooser()
	s := opStream{rec: make([]int32, n), read: make([]bool, n)}
	for i := 0; i < n; i++ {
		s.rec[i] = int32(ch.Next(rng))
		s.read[i] = w.NextOp(rng) == ycsb.OpRead
	}
	return s
}

// streamSeed derives the seed of one stream from the run's seed. Lanes
// 0..nWorkers-1 are the workers; every repetition replays the same
// streams, so repetitions differ by noise only and their median filters
// it. warmupLane is the unmeasured warm-up's stream.
func streamSeed(seed int64, lane int) int64 {
	return seed*1_000_003 + int64(lane)
}

const warmupLane = 1_000

// split shares n ops among nWorkers, remainder to the first workers.
func split(n int) [nWorkers]int {
	var out [nWorkers]int
	for i := range out {
		out[i] = n / nWorkers
		if i < n%nWorkers {
			out[i]++
		}
	}
	return out
}
