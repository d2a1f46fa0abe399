// Package ramcloud reproduces the RAMCloud in-memory storage system and
// the ICDCS 2017 characterization study "Characterizing Performance and
// Energy-Efficiency of The RAMCloud Storage System" (Taleb, Ibrahim,
// Antoniu, Cortes).
//
// One storage protocol runs in two deployments, which share the masters'
// store, the backups' replicas and the coordinator's tablet map:
//
//   - A deterministic simulated cluster, which this package exposes: a
//     coordinator, masters with log-structured memory and hash-table
//     indexes, backups with DRAM staging and disk spill, synchronous
//     replication and distributed crash recovery, on a testbed modeled on
//     the paper's Grid'5000 Nancy cluster (4-core nodes, Infiniband-class
//     fabric, HDDs, PDU power metering with a calibrated power model).
//     Every table and figure of the paper's evaluation can be regenerated
//     from it (see Experiments and cmd/rcbench).
//   - A real cluster over TCP: cmd/rccoord (the coordinator), cmd/rcserver
//     (a master and backup) and cmd/rcclient (one-shot operations, a REPL
//     and YCSB load).
//
// Applications script workloads against a Simulation:
//
//	sim := ramcloud.NewSimulation(ramcloud.Options{Servers: 3})
//	table := sim.CreateTable("usertable")
//	sim.Spawn("app", func(c *ramcloud.Client) {
//	    c.Write(table, []byte("k"), []byte("v"))
//	    v, _ := c.Read(table, []byte("k"))
//	    fmt.Println(string(v))
//	})
//	sim.Run()
//
// All time inside the simulation is virtual: a million operations cost
// milliseconds of wall clock, and runs are fully deterministic for a
// given seed. Values written with WriteLen carry only their length, so
// paper-scale datasets fit in modest host memory.
//
// Experiment regeneration executes its scenario grids on a worker pool of
// up to Parallelism() concurrent simulations and memoizes every distinct
// scenario's result process-wide (see RunExperiment); long-lived
// embedders call ResetExperimentCache between batches to bound that
// cache's growth.
package ramcloud

import (
	"errors"
	"fmt"
	"time"

	"ramcloud/internal/client"
	"ramcloud/internal/core"
	"ramcloud/internal/energy"
	"ramcloud/internal/sim"
	"ramcloud/internal/ycsb"
)

// Client errors surfaced by the public API.
var (
	// ErrNotFound reports a read or delete of an absent key.
	ErrNotFound = client.ErrNotFound
	// ErrUnavailable reports an operation that exhausted its retries.
	ErrUnavailable = client.ErrUnavailable
	// ErrNoTable reports an operation against a table the cluster does not
	// know (an invalid Table handle).
	ErrNoTable = client.ErrNoTable
)

// ErrUnknownExperiment reports an invalid experiment id.
var ErrUnknownExperiment = errors.New("ramcloud: unknown experiment")

// Options configures a simulated cluster.
type Options struct {
	// Servers is the number of storage servers (master + backup each).
	// Default 3.
	Servers int
	// ReplicationFactor is the number of backup replicas per segment.
	// 0 disables replication (the paper's Sections IV-V configuration).
	ReplicationFactor int
	// Seed drives all randomness; runs with equal seeds are identical.
	// Default 1.
	Seed int64
	// SegmentBytes overrides the 8 MB log segment size; at most about
	// 54 MiB, what a log reference addresses.
	SegmentBytes int
	// LogBytes overrides the 10 GB per-server log capacity.
	LogBytes int64
}

// Simulation is a running simulated cluster plus its virtual clock.
type Simulation struct {
	eng     *sim.Engine
	cluster *core.Cluster
	done    *sim.WaitGroup
	clients int
}

// NewSimulation builds and starts a cluster.
func NewSimulation(opts Options) *Simulation {
	if opts.Servers <= 0 {
		opts.Servers = 3
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	profile := core.DefaultProfile()
	if opts.SegmentBytes > 0 {
		profile.Server.Log.SegmentBytes = opts.SegmentBytes
	}
	if opts.LogBytes > 0 {
		profile.Server.Log.TotalBytes = opts.LogBytes
	}
	eng := sim.New(opts.Seed)
	cl := core.NewCluster(eng, profile, opts.Servers, opts.ReplicationFactor)
	cl.Start()
	return &Simulation{eng: eng, cluster: cl, done: sim.NewWaitGroup(eng)}
}

// Table identifies a created table.
type Table uint64

// CreateTable creates a table spanning every server, like the paper's
// ServerSpan = cluster size configuration.
func (s *Simulation) CreateTable(name string) Table {
	return Table(s.cluster.CreateTable(name))
}

// BulkLoad fills a table with n fixed-size records keyed user0000000000..
// in zero simulated time (the YCSB load phase).
func (s *Simulation) BulkLoad(table Table, records int, recordSize int) {
	s.cluster.BulkLoad(uint64(table), records, recordSize)
}

// Client is a storage client bound to one scripted proc. Its methods may
// only be used inside the function passed to Spawn.
type Client struct {
	p *sim.Proc
	c *client.Client
}

// Spawn schedules fn to run as a simulated client application. Each spawn
// gets its own client node on the fabric. fn runs during Run.
func (s *Simulation) Spawn(name string, fn func(c *Client)) {
	cl := s.cluster.NewClient()
	s.clients++
	s.done.Add(1)
	s.eng.Go(name, func(p *sim.Proc) {
		defer s.done.Done()
		p.Sleep(sim.Millisecond) // let cluster bring-up settle
		fn(&Client{p: p, c: cl})
	})
}

// Run executes the simulation until every spawned client finishes.
func (s *Simulation) Run() {
	s.eng.Go("ramcloud-controller", func(p *sim.Proc) {
		s.done.Wait(p)
		p.Sleep(sim.Second) // final PDU tick
		s.cluster.StopMetering()
		s.eng.Stop()
	})
	s.eng.Run()
	s.eng.Shutdown()
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration {
	return time.Duration(s.eng.Now())
}

// KillServer crashes server index i (0-based); the coordinator's failure
// detector triggers distributed recovery.
func (s *Simulation) KillServer(i int) {
	if i < 0 || i >= len(s.cluster.Servers) {
		panic(fmt.Sprintf("ramcloud: no server %d", i))
	}
	s.cluster.KillServer(i)
}

// Servers returns the number of storage servers.
func (s *Simulation) Servers() int { return len(s.cluster.Servers) }

// RecoveryCount returns how many crash recoveries have completed.
func (s *Simulation) RecoveryCount() int { return len(s.cluster.Coord.Records()) }

// EnergyReport summarizes power and energy over the first n seconds of
// the run (n <= 0 means everything sampled so far).
func (s *Simulation) EnergyReport() energy.Report {
	end := int(int64(s.eng.Now()) / int64(sim.Second))
	var ops int64
	for _, c := range s.cluster.Clients {
		ops += c.Stats().Ops.Value()
	}
	return s.cluster.EnergyReport(0, end, ops)
}

// Read fetches a value. Bytes stored with Write read back as written; a
// value stored with WriteLen reads back nil, and ReadLen returns its
// length.
func (c *Client) Read(table Table, key []byte) ([]byte, error) {
	_, v, err := c.c.Read(c.p, uint64(table), key)
	return v, err
}

// ReadLen fetches a value's declared length without materializing bytes.
func (c *Client) ReadLen(table Table, key []byte) (int, error) {
	n, _, err := c.c.Read(c.p, uint64(table), key)
	return int(n), err
}

// Write stores a value durably (replicated when the cluster has a
// replication factor).
func (c *Client) Write(table Table, key, value []byte) error {
	return c.c.Write(c.p, uint64(table), key, uint32(len(value)), value)
}

// WriteLen stores a virtual value of the given length.
func (c *Client) WriteLen(table Table, key []byte, valueLen int) error {
	return c.c.Write(c.p, uint64(table), key, uint32(valueLen), nil)
}

// Delete removes a key.
func (c *Client) Delete(table Table, key []byte) error {
	return c.c.Delete(c.p, uint64(table), key)
}

// Multi-op batching ---------------------------------------------------------

// MultiReadResult is one key's outcome in a MultiRead. Results are
// positional: result i answers keys[i].
type MultiReadResult struct {
	Value    []byte // nil for a value written with WriteLen
	ValueLen int    // declared length, always valid
	Version  uint64
	Err      error // nil, ErrNotFound, ErrNoTable, or ErrUnavailable
}

// MultiRead fetches a batch of keys in at most one RPC per involved
// master — RAMCloud's MultiRead. Batching amortizes client request
// generation and server dispatch, so a batched client can far exceed the
// per-op closed-loop rate (see the "batch" experiment).
func (c *Client) MultiRead(table Table, keys ...[]byte) []MultiReadResult {
	rs := c.c.MultiRead(c.p, uint64(table), keys)
	out := make([]MultiReadResult, len(rs))
	for i, r := range rs {
		out[i] = MultiReadResult{Value: r.Value, ValueLen: int(r.ValueLen), Version: r.Version, Err: r.Err}
	}
	return out
}

// WriteOp is one write in a MultiWrite batch. Leave Value nil and set
// ValueLen for a virtual payload.
type WriteOp struct {
	Key      []byte
	Value    []byte
	ValueLen int // used when Value is nil; otherwise len(Value) wins
}

// MultiWrite stores a batch of objects in at most one RPC per involved
// master. Each master appends its share under a single log-head
// acquisition and replicates it in one fan-out per segment. The returned
// slice is positional; a nil error means that item is durably written.
func (c *Client) MultiWrite(table Table, ops []WriteOp) []error {
	items := make([]client.MultiWriteOp, len(ops))
	for i, op := range ops {
		vl := uint32(op.ValueLen)
		if op.Value != nil {
			vl = uint32(len(op.Value))
		}
		items[i] = client.MultiWriteOp{Key: op.Key, ValueLen: vl, Value: op.Value}
	}
	rs := c.c.MultiWrite(c.p, uint64(table), items)
	out := make([]error, len(rs))
	for i, r := range rs {
		out[i] = r.Err
	}
	return out
}

// Asynchronous operations ---------------------------------------------------

// Future is a pending asynchronous operation. The RPC is already in
// flight; Wait blocks until it completes, driving retries exactly like the
// synchronous methods. A client may keep many futures outstanding to
// pipeline round trips.
type Future struct {
	c  *Client
	op *client.Op
}

// ReadAsync issues a read without waiting and returns its future.
func (c *Client) ReadAsync(table Table, key []byte) *Future {
	return &Future{c: c, op: c.c.ReadAsync(c.p, uint64(table), key)}
}

// WriteAsync issues a write without waiting for durability.
func (c *Client) WriteAsync(table Table, key, value []byte) *Future {
	return &Future{c: c, op: c.c.WriteAsync(c.p, uint64(table), key, uint32(len(value)), value)}
}

// DeleteAsync issues a delete without waiting.
func (c *Client) DeleteAsync(table Table, key []byte) *Future {
	return &Future{c: c, op: c.c.DeleteAsync(c.p, uint64(table), key)}
}

// Done reports whether the operation's current attempt has its response.
// It is a readiness hint: Wait usually returns immediately once Done is
// true, but a retryable response (a moved tablet, a busy server) still
// makes Wait drive further attempts before returning.
func (f *Future) Done() bool { return f.op.Done() }

// Wait blocks until the operation completes. For reads it returns the
// value bytes as written with Write, or nil for a value written with
// WriteLen; for writes and deletes, nil.
func (f *Future) Wait() ([]byte, error) {
	_, v, err := f.op.Wait(f.c.p)
	return v, err
}

// Sleep pauses the client for a span of virtual time.
func (c *Client) Sleep(d time.Duration) { c.p.Sleep(sim.Duration(d)) }

// Now returns the current virtual time.
func (c *Client) Now() time.Duration { return time.Duration(c.p.Now()) }

// Stats exposes the client's latency and throughput measurements.
func (c *Client) Stats() *client.Stats { return c.c.Stats() }

// RunWorkload drives this client through a YCSB workload: n requests of
// the given mix against the table, optionally throttled to rate ops/s.
func (c *Client) RunWorkload(table Table, workload string, records, requests int, rate float64, seed int64) error {
	return c.RunWorkloadOpts(table, workload, WorkloadOptions{
		Records: records, Requests: requests, Rate: rate, Seed: seed,
	})
}

// WorkloadOptions tunes RunWorkloadOpts beyond the paper's closed loop.
type WorkloadOptions struct {
	Records    int
	Requests   int
	RecordSize int     // value bytes per record; default 1024 (the paper's)
	Rate       float64 // client-side throttle in ops/s; 0 = unthrottled
	Seed       int64

	// BatchSize > 1 groups ops into MultiRead/MultiWrite batches (YCSB's
	// multiget mode); Window > 1 pipelines through the async API instead.
	BatchSize int
	Window    int
}

// RunWorkloadOpts drives this client through a YCSB workload with batched
// or pipelined request issue (see WorkloadOptions).
func (c *Client) RunWorkloadOpts(table Table, workload string, opts WorkloadOptions) error {
	size := opts.RecordSize
	if size <= 0 {
		size = 1024
	}
	w, err := ycsb.ByName(workload, opts.Records, size)
	if err != nil {
		return err
	}
	res := ycsb.RunClient(c.p, c.c, w, ycsb.RunOptions{
		Table:     uint64(table),
		Requests:  opts.Requests,
		Rate:      opts.Rate,
		Seed:      opts.Seed,
		BatchSize: opts.BatchSize,
		Window:    opts.Window,
	})
	if res.Errors > 0 {
		return fmt.Errorf("ramcloud: workload finished with %d errors: %w", res.Errors, ErrUnavailable)
	}
	return nil
}

// Composable scenarios -------------------------------------------------------

// Arrival selects how a client group issues requests.
type Arrival string

// Arrival modes. ArrivalClosed is the paper's loop: issue, wait, repeat.
// ArrivalOpen issues at Poisson arrivals targeting Rate ops/s regardless
// of completions, so measured latency includes queueing delay.
// ArrivalBatched groups operations into MultiRead/MultiWrite RPCs and
// ArrivalWindowed pipelines through the async API.
const (
	ArrivalClosed   Arrival = "closed"
	ArrivalOpen     Arrival = "open"
	ArrivalBatched  Arrival = "batched"
	ArrivalWindowed Arrival = "windowed"
)

// Shape selects a load phase's wave form.
type Shape string

// Load shapes: constant holds From; ramp moves linearly From -> To; step
// jumps From -> To in Steps discrete levels; sine oscillates between From
// and To (crest at To) with the given Period.
const (
	ShapeConstant Shape = "constant"
	ShapeRamp     Shape = "ramp"
	ShapeStep     Shape = "step"
	ShapeSine     Shape = "sine"
)

// ClientGroup is one homogeneous client population in a Scenario: its own
// workload, arrival mode, rate target and lifetime. Several groups run
// concurrently against the same cluster (mixed tenants).
type ClientGroup struct {
	Name    string
	Clients int

	// Workload is a YCSB core workload letter: "A", "B" or "C".
	Workload   string
	Records    int // records preloaded and addressed (default 100_000)
	RecordSize int // value bytes per record (default 1024, the paper's)

	// Requests bounds each client; 0 means "until Stop or the end of the
	// phase schedule".
	Requests int

	Arrival Arrival // default: closed (or batched/windowed when set below)
	// Rate is the per-client target in ops/s: a throttle for closed
	// loops (0 = unthrottled) or the Poisson arrival rate for open loops
	// (required there). Load phases modulate it.
	Rate      float64
	BatchSize int
	Window    int

	// Start delays the group's clients; Stop (when > 0) ends issuing at
	// that offset from scenario start.
	Start time.Duration
	Stop  time.Duration
}

// LoadPhase modulates every group's Rate over one span of virtual time.
// Phases run back to back from scenario start.
type LoadPhase struct {
	Name     string
	Shape    Shape
	Duration time.Duration
	From, To float64       // rate multipliers (1.0 = the group's base Rate)
	Period   time.Duration // sine wavelength (default: the phase duration)
	Steps    int           // step count for ShapeStep (default 4)
}

// Scenario describes one measured run of heterogeneous client groups
// under an optional load-phase schedule.
type Scenario struct {
	Servers           int // default 3
	ReplicationFactor int
	Seed              int64 // default 42

	Groups []ClientGroup
	Phases []LoadPhase
}

// GroupMetrics is one group's share of a scenario run. Joules are
// attributed activity-proportionally: each second's cluster energy is
// split across groups by their share of delivered operations.
type GroupMetrics struct {
	Group      string
	Arrival    string
	Clients    int
	TotalOps   int64
	Throughput float64 // ops/s over the group's active seconds

	ReadMeanUs, ReadP99Us   float64
	WriteMeanUs, WriteP99Us float64

	Timeouts, Failures int64

	Joules      float64
	OpsPerJoule float64
}

// PhaseMetrics is one load phase's slice of a scenario run.
type PhaseMetrics struct {
	Phase string
	Shape string

	Start, End time.Duration // second-aligned window covered by the phase

	OfferedScale      float64 // mean rate multiplier across the phase
	Ops               int64
	Throughput        float64
	AvgPowerPerServer float64
	Joules            float64
	OpsPerJoule       float64
}

// ScenarioMetrics is everything a RunScenario call measures.
type ScenarioMetrics struct {
	TotalOps          int64
	Duration          time.Duration
	Throughput        float64
	AvgPowerPerServer float64
	TotalJoules       float64
	OpsPerJoule       float64

	Groups []GroupMetrics
	Phases []PhaseMetrics
}

// RunScenario executes a composable scenario — heterogeneous client
// groups under an optional load-phase schedule — on a dedicated simulated
// cluster and returns per-run, per-group and per-phase measurements.
// Runs are deterministic for a given seed.
func RunScenario(s Scenario) (*ScenarioMetrics, error) {
	if s.Servers <= 0 {
		s.Servers = 3
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if len(s.Groups) == 0 {
		return nil, errors.New("ramcloud: scenario needs at least one client group")
	}
	cs := core.Scenario{
		Name:    "scenario",
		Servers: s.Servers,
		RF:      s.ReplicationFactor,
		Seed:    s.Seed,
	}
	for _, g := range s.Groups {
		records := g.Records
		if records <= 0 {
			records = 100_000
		}
		size := g.RecordSize
		if size <= 0 {
			size = 1024
		}
		w, err := ycsb.ByName(g.Workload, records, size)
		if err != nil {
			return nil, fmt.Errorf("ramcloud: group %q: %w", g.Name, err)
		}
		mode := core.ArrivalDefault
		switch g.Arrival {
		case "":
		case ArrivalClosed:
			mode = core.ArrivalClosed
		case ArrivalOpen:
			if g.Rate <= 0 {
				return nil, fmt.Errorf("ramcloud: open-loop group %q needs Rate > 0", g.Name)
			}
			mode = core.ArrivalOpen
		case ArrivalBatched:
			if g.BatchSize < 2 {
				return nil, fmt.Errorf("ramcloud: batched group %q needs BatchSize > 1", g.Name)
			}
			mode = core.ArrivalBatched
		case ArrivalWindowed:
			if g.Window < 2 {
				return nil, fmt.Errorf("ramcloud: windowed group %q needs Window > 1", g.Name)
			}
			mode = core.ArrivalWindowed
		default:
			return nil, fmt.Errorf("ramcloud: group %q: unknown arrival mode %q", g.Name, g.Arrival)
		}
		if g.Requests <= 0 && g.Stop == 0 && len(s.Phases) == 0 {
			return nil, fmt.Errorf("ramcloud: group %q needs Requests, Stop or phases", g.Name)
		}
		cs.Groups = append(cs.Groups, core.ClientGroup{
			Name:              g.Name,
			Clients:           g.Clients,
			Workload:          w,
			RequestsPerClient: g.Requests,
			Arrival:           mode,
			Rate:              g.Rate,
			BatchSize:         g.BatchSize,
			Window:            g.Window,
			Start:             sim.Duration(g.Start),
			Stop:              sim.Duration(g.Stop),
		})
	}
	for _, ph := range s.Phases {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("ramcloud: phase %q needs a positive Duration", ph.Name)
		}
		shape := core.ShapeConstant
		switch ph.Shape {
		case "", ShapeConstant:
		case ShapeRamp:
			shape = core.ShapeRamp
		case ShapeStep:
			shape = core.ShapeStep
		case ShapeSine:
			shape = core.ShapeSine
		default:
			return nil, fmt.Errorf("ramcloud: phase %q: unknown shape %q", ph.Name, ph.Shape)
		}
		cs.Phases = append(cs.Phases, core.LoadPhase{
			Name:     ph.Name,
			Shape:    shape,
			Duration: sim.Duration(ph.Duration),
			From:     ph.From,
			To:       ph.To,
			Period:   sim.Duration(ph.Period),
			Steps:    ph.Steps,
		})
	}

	r := core.Run(cs)
	out := &ScenarioMetrics{
		TotalOps:          r.TotalOps,
		Duration:          time.Duration(r.Duration),
		Throughput:        r.Throughput,
		AvgPowerPerServer: r.AvgPowerPerServer,
		TotalJoules:       r.TotalJoules,
		OpsPerJoule:       r.OpsPerJoule,
	}
	for _, g := range r.Groups {
		out.Groups = append(out.Groups, GroupMetrics{
			Group:       g.Group,
			Arrival:     g.Arrival,
			Clients:     g.Clients,
			TotalOps:    g.TotalOps,
			Throughput:  g.Throughput,
			ReadMeanUs:  g.ReadLatency.Mean() / 1000,
			ReadP99Us:   float64(g.ReadLatency.Quantile(0.99)) / 1000,
			WriteMeanUs: g.WriteLatency.Mean() / 1000,
			WriteP99Us:  float64(g.WriteLatency.Quantile(0.99)) / 1000,
			Timeouts:    g.Timeouts,
			Failures:    g.Failures,
			Joules:      g.Joules,
			OpsPerJoule: g.OpsPerJoule,
		})
	}
	for _, ph := range r.Phases {
		out.Phases = append(out.Phases, PhaseMetrics{
			Phase:             ph.Phase,
			Shape:             ph.Shape,
			Start:             time.Duration(ph.StartSec) * time.Second,
			End:               time.Duration(ph.EndSec) * time.Second,
			OfferedScale:      ph.OfferedScale,
			Ops:               ph.Ops,
			Throughput:        ph.Throughput,
			AvgPowerPerServer: ph.AvgPowerPerServer,
			Joules:            ph.Joules,
			OpsPerJoule:       ph.OpsPerJoule,
		})
	}
	return out, nil
}

// Experiment mirror of internal/core for external callers ------------------

// ExperimentIDs lists the reproducible paper artifacts in paper order.
func ExperimentIDs() []string {
	exps := core.Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// RunExperiment regenerates one paper table/figure and returns its
// rendered result. Scale 1.0 is the standard reproduction scale; larger
// values approach paper-scale run lengths.
//
// The experiment's scenario grid executes on a worker pool of
// Parallelism() concurrent simulations (the rendering itself is serial
// and byte-identical at any parallelism level), and identical scenarios
// are memoized process-wide: a second RunExperiment sharing cells with an
// earlier one does not re-simulate them. Long-lived embedders rendering
// many distinct experiments should call ResetExperimentCache between
// batches to release the accumulated results.
func RunExperiment(id string, scale float64, seed int64) (string, error) {
	e, ok := core.ByID(id)
	if !ok {
		return "", fmt.Errorf("%w: %q (see ExperimentIDs)", ErrUnknownExperiment, id)
	}
	opts := core.Options{Scale: scale, Seed: seed}
	if core.Parallelism() > 1 {
		core.NewRunner(0).Prewarm([]core.Experiment{e}, opts)
	}
	res := e.Run(opts)
	return res.Render(), nil
}

// Parallelism returns the process-wide bound on concurrent scenario
// simulations (GOMAXPROCS unless SetParallelism overrode it). It governs
// RunExperiment's scenario prewarm and core seed sweeps; single scenario
// runs (RunScenario, Simulation) are one simulation regardless.
func Parallelism() int { return core.Parallelism() }

// SetParallelism bounds concurrent scenario simulations process-wide;
// n <= 0 restores the GOMAXPROCS default. It returns the previous
// setting (0 = GOMAXPROCS). Each in-flight simulation holds a full
// cluster plus its measurement series, so the bound is also the peak-
// memory budget of a sweep.
func SetParallelism(n int) int { return core.SetParallelism(n) }

// ResetExperimentCache drops every memoized experiment scenario result.
// The cache is process-global and grows with every distinct scenario a
// RunExperiment call simulates — a long-lived embedder that renders many
// experiments (or the same experiments at many scales or seeds) should
// reset it between batches; the next RunExperiment then re-simulates
// from scratch. Concurrent in-flight runs are unaffected.
func ResetExperimentCache() { core.ResetMemo() }
