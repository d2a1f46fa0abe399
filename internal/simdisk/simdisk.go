// Package simdisk models the 298 GB HDD of each testbed node as a FIFO
// device with separate sequential read and write bandwidths and a seek
// penalty whenever the access direction alternates. The alternation penalty
// is what makes recovery reads interfere with re-replication writes
// (Fig. 12 and Finding 6 of the paper).
package simdisk

import (
	"ramcloud/internal/metrics"
	"ramcloud/internal/sim"
)

type opKind uint8

const (
	opNone opKind = iota
	opRead
	opWrite
)

// Config sets disk performance characteristics.
type Config struct {
	ReadBandwidth  float64 // bytes/second sequential
	WriteBandwidth float64 // bytes/second sequential
	// SeekPenalty is the positioning delay charged per request: distinct
	// requests target distinct segments/replicas on the platter. It is
	// what makes many small segments slower to recover than few large
	// ones (the paper's Section IX segment-size discussion) and what
	// makes recovery reads interfere with re-replication writes.
	SeekPenalty sim.Duration
}

// DefaultConfig models the Grid'5000 Nancy 298 GB HDDs.
func DefaultConfig() Config {
	return Config{
		ReadBandwidth:  130e6,
		WriteBandwidth: 110e6,
		SeekPenalty:    6 * sim.Millisecond,
	}
}

// Disk is one node's drive. Requests are serviced FIFO: each new request
// starts when the previous one finishes.
type Disk struct {
	eng *sim.Engine
	cfg Config

	busyUntil sim.Time
	lastOp    opKind

	readBytes  metrics.Series // bytes read per second (attributed at start)
	writeBytes metrics.Series
	busy       metrics.Series // busy nanoseconds per second
}

// New returns an idle disk.
func New(e *sim.Engine, cfg Config) *Disk {
	if cfg.ReadBandwidth <= 0 || cfg.WriteBandwidth <= 0 {
		panic("simdisk: bandwidth must be positive")
	}
	return &Disk{eng: e, cfg: cfg}
}

// schedule books an operation and returns its completion time.
func (d *Disk) schedule(kind opKind, size int64) sim.Time {
	now := d.eng.Now()
	start := d.busyUntil
	if start < now {
		start = now
	}
	start = start.Add(d.cfg.SeekPenalty)
	bw := d.cfg.ReadBandwidth
	if kind == opWrite {
		bw = d.cfg.WriteBandwidth
	}
	dur := sim.Duration(float64(size) / bw * float64(sim.Second))
	end := start.Add(dur)
	d.lastOp = kind
	d.busyUntil = end
	d.accountBusy(start, end)
	d.accountBytes(kind, start, end, size)
	return end
}

func (d *Disk) accountBusy(from, to sim.Time) {
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		d.busy.Add(int(second), float64(end-t))
		t = end
	}
}

// accountBytes spreads the transferred bytes across the seconds the
// operation spans, so the Fig. 12 I/O-rate series is smooth.
func (d *Disk) accountBytes(kind opKind, from, to sim.Time, size int64) {
	series := &d.readBytes
	if kind == opWrite {
		series = &d.writeBytes
	}
	span := float64(to - from)
	if span <= 0 {
		series.Add(int(int64(from)/int64(sim.Second)), float64(size))
		return
	}
	for t := from; t < to; {
		second := int64(t) / int64(sim.Second)
		bucketEnd := sim.Time((second + 1) * int64(sim.Second))
		end := to
		if bucketEnd < end {
			end = bucketEnd
		}
		series.Add(int(second), float64(size)*float64(end-t)/span)
		t = end
	}
}

// Read blocks the proc for a sequential read of size bytes.
func (d *Disk) Read(p *sim.Proc, size int64) {
	end := d.schedule(opRead, size)
	p.Sleep(end.Sub(p.Now()))
}

// Write blocks the proc for a sequential write of size bytes.
func (d *Disk) Write(p *sim.Proc, size int64) {
	end := d.schedule(opWrite, size)
	p.Sleep(end.Sub(p.Now()))
}

// WriteAsync books a write and invokes done (in callback context) when it
// completes. Used by the backup flush path so workers never block on disk.
func (d *Disk) WriteAsync(size int64, done func()) {
	end := d.schedule(opWrite, size)
	d.eng.ScheduleAt(end, done)
}

// BusyFracSecond returns the fraction of second k the disk spent busy.
func (d *Disk) BusyFracSecond(k int) float64 {
	f := d.busy.At(k) / float64(sim.Second)
	if f > 1 {
		return 1
	}
	return f
}

// ReadBytesSecond returns bytes read during second k.
func (d *Disk) ReadBytesSecond(k int) float64 { return d.readBytes.At(k) }

// WriteBytesSecond returns bytes written during second k.
func (d *Disk) WriteBytesSecond(k int) float64 { return d.writeBytes.At(k) }
