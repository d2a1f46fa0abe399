package simdisk

import (
	"math"
	"testing"

	"ramcloud/internal/sim"
)

func cfg() Config {
	return Config{ReadBandwidth: 100e6, WriteBandwidth: 50e6, SeekPenalty: 10 * sim.Millisecond}
}

func TestReadDuration(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	var done sim.Time
	e.Go("r", func(p *sim.Proc) {
		d.Read(p, 100e6) // 10ms seek + 1 second at 100 MB/s
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(sim.Second+10*sim.Millisecond) {
		t.Fatalf("read finished at %v, want 1.01s", done)
	}
	if got := d.ReadBytesSecond(0) + d.ReadBytesSecond(1); math.Abs(got-100e6) > 1 {
		t.Fatalf("total read = %v", got)
	}
}

func TestFIFOSerialization(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	var t1, t2 sim.Time
	e.Go("a", func(p *sim.Proc) { d.Read(p, 50e6); t1 = p.Now() }) // seek + 0.5s
	e.Go("b", func(p *sim.Proc) { d.Read(p, 50e6); t2 = p.Now() }) // queued behind a
	e.Run()
	if t1 != sim.Time(510*sim.Millisecond) {
		t.Fatalf("t1 = %v", t1)
	}
	if t2 != sim.Time(sim.Second+20*sim.Millisecond) {
		t.Fatalf("t2 = %v, want 1.02s (serialized)", t2)
	}
}

func TestSeekPenaltyPerRequest(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	var done sim.Time
	e.Go("rw", func(p *sim.Proc) {
		d.Read(p, 100e6) // seek + 1s
		d.Write(p, 50e6) // seek + 1s at 50MB/s
		d.Read(p, 100e6) // seek + 1s
		done = p.Now()
	})
	e.Run()
	want := sim.Time(3*sim.Second + 30*sim.Millisecond)
	if done != want {
		t.Fatalf("done at %v, want %v", done, want)
	}
}

func TestSeekChargedSameDirectionToo(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	var done sim.Time
	e.Go("ww", func(p *sim.Proc) {
		d.Write(p, 50e6)
		d.Write(p, 50e6)
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(2*sim.Second+20*sim.Millisecond) {
		t.Fatalf("done at %v, want 2.02s", done)
	}
}

func TestWriteAsync(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	var doneAt sim.Time
	d.WriteAsync(50e6, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != sim.Time(sim.Second+10*sim.Millisecond) {
		t.Fatalf("async write done at %v, want 1.01s", doneAt)
	}
	if got := d.WriteBytesSecond(0) + d.WriteBytesSecond(1); math.Abs(got-50e6) > 1 {
		t.Fatalf("total written = %v", got)
	}
}

func TestByteAccountingSpread(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	e.Go("r", func(p *sim.Proc) {
		d.Read(p, 200e6) // 10ms seek + 2 seconds
	})
	e.Run()
	if d.ReadBytesSecond(0) < 90e6 || d.ReadBytesSecond(1) < 90e6 {
		t.Fatalf("read spread = %v / %v", d.ReadBytesSecond(0), d.ReadBytesSecond(1))
	}
	if d.BusyFracSecond(0) < 0.98 {
		t.Fatalf("busy frac = %v", d.BusyFracSecond(0))
	}
	if d.BusyFracSecond(5) != 0 {
		t.Fatal("idle second should be 0")
	}
}

func TestWriteBytesSecond(t *testing.T) {
	e := sim.New(1)
	d := New(e, cfg())
	e.Go("w", func(p *sim.Proc) { d.Write(p, 25e6) }) // seek + 0.5s
	e.Run()
	if math.Abs(d.WriteBytesSecond(0)-25e6) > 1 {
		t.Fatalf("write bytes = %v", d.WriteBytesSecond(0))
	}
	if d.BusyFracSecond(0) != 0.5 {
		t.Fatalf("busy = %v", d.BusyFracSecond(0))
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.New(1), Config{ReadBandwidth: 0, WriteBandwidth: 1})
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.ReadBandwidth < 50e6 || c.WriteBandwidth < 50e6 || c.SeekPenalty <= 0 {
		t.Fatalf("default config %+v", c)
	}
}
