package realnode

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ramcloud/internal/ycsb"
)

// LoadOptions configures a real-cluster YCSB run.
type LoadOptions struct {
	Clients int   // concurrent worker goroutines (default 4)
	Ops     int   // total operations across workers (default 10000)
	Seed    int64 // base RNG seed; worker i uses Seed+i
	Load    bool  // run the load phase (insert every record) first

	// Pipeline keeps up to this many operations in flight per worker
	// (async futures over one shared client; default 1 = synchronous).
	// Latency is measured issue-to-resolve, so queueing in the window
	// is charged to the op, exactly like the simulated Window mode.
	Pipeline int
	// Batch groups this many operations into MultiRead/MultiWrite
	// rounds (at most one RPC per owning master per round; default 1 =
	// individual ops). When Batch > 1 it takes precedence over
	// Pipeline, and the load phase also inserts via MultiWrite.
	Batch int
}

func (o LoadOptions) clients() int {
	if o.Clients > 0 {
		return o.Clients
	}
	return 4
}

func (o LoadOptions) ops() int {
	if o.Ops > 0 {
		return o.Ops
	}
	return 10000
}

func (o LoadOptions) pipeline() int {
	if o.Pipeline > 0 {
		return o.Pipeline
	}
	return 1
}

func (o LoadOptions) batch() int {
	if o.Batch > 0 {
		return o.Batch
	}
	return 1
}

// LoadResult summarizes a real-cluster YCSB run. Unlike the simulated
// results these are wall-clock measurements of the local TCP cluster —
// useful as a protocol soak and a sanity scale, not as figures.
type LoadResult struct {
	Ops        int // operations that completed (incl. NotFound)
	Reads      int
	Updates    int
	NotFound   int // reads of keys with no live object
	Errors     int // ErrUnavailable, protocol failures and reads of bytes no update wrote
	Elapsed    time.Duration
	P50, P99   time.Duration // completed-op latency percentiles
	Throughput float64       // completed ops per second
}

// Value renders the deterministic payload for record i: RecordSize bytes
// derived from the key, so any reader can validate what it fetched.
func Value(w ycsb.Workload, i int) []byte { return value(ycsb.Key(i), w.RecordSize) }

func value(key []byte, size int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = key[j%len(key)] ^ byte(j)
	}
	return v
}

// errWrongValue is a read of bytes other than its key's Value, which
// every update writes.
var errWrongValue = errors.New("realnode: read returned bytes no update wrote")

// checkRead is a read's outcome: err, or errWrongValue for bytes v that
// are not key's Value.
func checkRead(w ycsb.Workload, key, v []byte, err error) error {
	if err == nil && !bytes.Equal(v, value(key, w.RecordSize)) {
		return errWrongValue
	}
	return err
}

// workerTally accumulates one worker's outcomes.
type workerTally struct {
	res  LoadResult
	lats []time.Duration
}

func (t *workerTally) settle(isRead bool, err error, lat time.Duration) {
	if isRead {
		t.res.Reads++
	} else {
		t.res.Updates++
	}
	switch {
	case err == nil:
		t.res.Ops++
		t.lats = append(t.lats, lat)
	case errors.Is(err, ErrNotFound):
		t.res.Ops++
		t.res.NotFound++
		t.lats = append(t.lats, lat)
	default:
		t.res.Errors++
	}
}

// RunYCSB drives the workload mix against a live cluster through c. The
// key distribution and operation mix come from the same internal/ycsb
// generators the simulated runs use. Pipeline and Batch select the
// async-window and multi-op fast paths over the same wire. Every update
// writes Value, so a read that returns other bytes counts as an error.
func RunYCSB(c *Client, table uint64, w ycsb.Workload, opts LoadOptions) (LoadResult, error) {
	if opts.Load {
		if err := loadPhase(c, table, w, opts); err != nil {
			return LoadResult{}, err
		}
	}

	nClients := opts.clients()
	totalOps := opts.ops()
	var res LoadResult
	var mu sync.Mutex
	lats := make([]time.Duration, 0, totalOps)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		share := totalOps / nClients
		if i < totalOps%nClients {
			share++
		}
		wg.Add(1)
		go func(worker, nOps int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(worker)))
			ch := w.NewChooser()
			tally := &workerTally{lats: make([]time.Duration, 0, nOps)}
			switch {
			case opts.batch() > 1:
				runBatched(c, table, w, rng, ch, nOps, opts.batch(), tally)
			case opts.pipeline() > 1:
				runPipelined(c, table, w, rng, ch, nOps, opts.pipeline(), tally)
			default:
				runSync(c, table, w, rng, ch, nOps, tally)
			}
			mu.Lock()
			res.Ops += tally.res.Ops
			res.Reads += tally.res.Reads
			res.Updates += tally.res.Updates
			res.NotFound += tally.res.NotFound
			res.Errors += tally.res.Errors
			lats = append(lats, tally.lats...)
			mu.Unlock()
		}(i, share)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
	}
	return res, nil
}

// runSync is the classic one-op-at-a-time loop.
func runSync(c *Client, table uint64, w ycsb.Workload, rng *rand.Rand, ch ycsb.Chooser, nOps int, tally *workerTally) {
	for n := 0; n < nOps; n++ {
		rec := ch.Next(rng)
		key := ycsb.Key(rec)
		opStart := time.Now()
		var err error
		isRead := rng.Float64() < w.ReadProp
		if isRead {
			var v []byte
			v, _, err = c.Get(table, key)
			err = checkRead(w, key, v, err)
		} else {
			_, err = c.Put(table, key, Value(w, rec))
		}
		tally.settle(isRead, err, time.Since(opStart))
	}
}

// runPipelined keeps a FIFO window of depth futures in flight: issue
// until the window is full, then reap the oldest before issuing the
// next. One worker goroutine, no goroutine per op — the transport
// coalesces the queued requests into shared flushes.
func runPipelined(c *Client, table uint64, w ycsb.Workload, rng *rand.Rand, ch ycsb.Chooser, nOps, depth int, tally *workerTally) {
	type inflight struct {
		f      *Future
		key    []byte
		isRead bool
		issued time.Time
	}
	window := make([]inflight, 0, depth)
	head := 0
	reap := func() {
		op := window[head]
		head++
		v, _, err := op.f.Wait()
		if op.isRead {
			err = checkRead(w, op.key, v, err)
		}
		tally.settle(op.isRead, err, time.Since(op.issued))
	}
	for n := 0; n < nOps; n++ {
		if len(window)-head == depth {
			reap()
			if head == len(window) {
				window = window[:0]
				head = 0
			}
		}
		rec := ch.Next(rng)
		key := ycsb.Key(rec)
		isRead := rng.Float64() < w.ReadProp
		var f *Future
		issued := time.Now()
		if isRead {
			f = c.GetAsync(table, key)
		} else {
			f = c.PutAsync(table, key, Value(w, rec))
		}
		window = append(window, inflight{f: f, key: key, isRead: isRead, issued: issued})
	}
	for head < len(window) {
		reap()
	}
}

// runBatched groups ops into MultiRead/MultiWrite rounds. Latency is
// charged per round to every op in it (a multiget's caller waits for
// the whole batch).
func runBatched(c *Client, table uint64, w ycsb.Workload, rng *rand.Rand, ch ycsb.Chooser, nOps, batch int, tally *workerTally) {
	for n := 0; n < nOps; {
		b := batch
		if rem := nOps - n; b > rem {
			b = rem
		}
		readKeys := make([][]byte, 0, b)
		writeKeys := make([][]byte, 0, b)
		writeVals := make([][]byte, 0, b)
		for j := 0; j < b; j++ {
			rec := ch.Next(rng)
			if rng.Float64() < w.ReadProp {
				readKeys = append(readKeys, ycsb.Key(rec))
			} else {
				writeKeys = append(writeKeys, ycsb.Key(rec))
				writeVals = append(writeVals, Value(w, rec))
			}
		}
		roundStart := time.Now()
		var rres, wres []MultiResult
		if len(readKeys) > 0 {
			rres = c.MultiRead(table, readKeys)
		}
		if len(writeKeys) > 0 {
			wres = c.MultiWrite(table, writeKeys, writeVals)
		}
		lat := time.Since(roundStart)
		for i := range rres {
			tally.settle(true, checkRead(w, readKeys[i], rres[i].Value, rres[i].Err), lat)
		}
		for i := range wres {
			tally.settle(false, wres[i].Err, lat)
		}
		n += b
	}
}

// loadPhase inserts every record, split across workers. With Batch > 1
// it inserts through MultiWrite (one RPC per owner per round).
func loadPhase(c *Client, table uint64, w ycsb.Workload, opts LoadOptions) error {
	nClients := opts.clients()
	batch := opts.batch()
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if batch > 1 {
				keys := make([][]byte, 0, batch)
				vals := make([][]byte, 0, batch)
				flush := func() error {
					if len(keys) == 0 {
						return nil
					}
					for _, r := range c.MultiWrite(table, keys, vals) {
						if r.Err != nil {
							return fmt.Errorf("load batch: %w", r.Err)
						}
					}
					keys = keys[:0]
					vals = vals[:0]
					return nil
				}
				for rec := worker; rec < w.RecordCount; rec += nClients {
					keys = append(keys, ycsb.Key(rec))
					vals = append(vals, Value(w, rec))
					if len(keys) == batch {
						if err := flush(); err != nil {
							errCh <- err
							return
						}
					}
				}
				if err := flush(); err != nil {
					errCh <- err
				}
				return
			}
			for rec := worker; rec < w.RecordCount; rec += nClients {
				if _, err := c.Put(table, ycsb.Key(rec), Value(w, rec)); err != nil {
					errCh <- fmt.Errorf("load record %d: %w", rec, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
