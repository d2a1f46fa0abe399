package transport

import (
	"net"
	"sync"
	"time"

	"ramcloud/internal/wire"
)

// connWriter serializes outbound frames on one socket. Callers encode
// their envelope straight into the pending buffer under a short lock;
// whoever writes swaps the buffer out and sends it with one syscall. At
// most one write is in progress at a time (the writing flag), and two
// kinds of goroutine may perform it:
//
//   - The enqueuing goroutine itself, when it asks for an inline write
//     and the socket is idle. A synchronous caller blocks for the reply
//     anyway, a Start with no other call in flight has nothing to
//     coalesce behind, and a server reader that has nothing else buffered
//     has nothing better to do, so waking another goroutine to issue the
//     syscall only adds a scheduler hand-off to the round trip. An inline
//     writer performs one write and leaves; it never loops over frames
//     other callers queued meanwhile.
//   - The flusher goroutine, for everything else: frames whose enqueuer
//     has more work to issue (Starts behind a call in flight, pool-served
//     responses) and frames that queued while a write was in flight.
//     Under load many frames accumulate behind the write in progress, so
//     the syscall cost amortizes across the batch (smallbatching: the
//     flush boundary is "whatever queued since the last write").
//
// A frame appended while a write is in progress is never stranded: the
// writer re-checks the buffer when its Write returns — the flusher loops,
// an inline writer kicks the flusher.
//
// The first write error poisons the writer and invokes onDead exactly
// once, so a dead socket is torn down instead of accepting more frames
// (the pre-coalescing server dropped WriteFrame errors on the floor and
// kept serving reads until the read side noticed). The buffer itself is
// not bounded: it grows for as long as one write stalls, up to the write
// timeout.
type connWriter struct {
	nc net.Conn
	// writeTimeout bounds one write; a peer that stops reading long
	// enough to stall a write this long is treated as dead.
	writeTimeout time.Duration
	// onDead is called once, on the flusher or on a goroutine of its own,
	// never on an enqueuing goroutine: it may take locks an enqueuer's
	// caller holds.
	onDead func()

	mu      sync.Mutex
	buf     []byte // frames queued for the next write
	spare   []byte // the previously written buffer, recycled
	err     error  // first write error (or ErrClosed); sticky
	writing bool   // a swapped-out buffer is being written
	stats   writerStats

	kick chan struct{} // buffered(1): "buf is non-empty and nobody is writing it"
	done chan struct{}
	once sync.Once
}

// writerStats counts which goroutine wrote what. Tests and benchmarks
// read it, so the share of a traffic shape that takes each path is
// printed rather than assumed.
type writerStats struct {
	inlineWrites  uint64 // writes performed by the enqueuing goroutine
	flusherWrites uint64 // writes performed by the flusher
	frames        uint64 // frames queued; all are written unless the socket dies first
}

// maxRetainedWriteBuf caps the coalescing buffers kept across writes,
// so one jumbo frame doesn't pin megabytes on an idle connection.
const maxRetainedWriteBuf = 1 << 20

func newConnWriter(nc net.Conn, writeTimeout time.Duration, onDead func()) *connWriter {
	w := &connWriter{
		nc:           nc,
		writeTimeout: writeTimeout,
		onDead:       onDead,
		kick:         make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	go w.loop()
	return w
}

// enqueue encodes one frame into the pending buffer and gets it written:
// by the write already in progress if there is one (its writer re-checks
// the buffer), else on this goroutine when inline is set, else by the
// flusher. It returns the sticky error if the socket already failed: the
// frame is then guaranteed not to have been queued. A failure of the
// inline write itself is reported like a failed flush — through onDead,
// not to the caller, whose frame was queued.
func (w *connWriter) enqueue(id uint64, msg wire.Message, inline bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	buf, err := wire.AppendEnvelope(w.buf, wire.Envelope{RPCID: id, Msg: msg})
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.buf = buf
	w.stats.frames++
	if w.writing {
		w.mu.Unlock()
		return nil
	}
	if !inline {
		w.mu.Unlock()
		w.wake()
		return nil
	}
	out := w.takeLocked()
	w.stats.inlineWrites++
	w.mu.Unlock()
	more, err := w.write(out)
	if err != nil {
		go w.onDead()
	} else if more {
		w.wake()
	}
	return nil
}

// wake signals the flusher that buf is non-empty.
func (w *connWriter) wake() {
	select {
	case w.kick <- struct{}{}:
	default: // flusher already signaled
	}
}

// takeLocked swaps the pending buffer out and claims the socket for one
// write. Caller holds w.mu and has checked !w.writing.
func (w *connWriter) takeLocked() []byte {
	out := w.buf
	w.buf = w.spare[:0]
	w.spare = nil
	w.writing = true
	return out
}

// write sends a buffer taken by takeLocked and releases the socket. It
// reports whether frames queued meanwhile, and poisons the writer on
// error; the caller owes onDead.
func (w *connWriter) write(out []byte) (more bool, err error) {
	if w.writeTimeout > 0 {
		w.nc.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	_, err = w.nc.Write(out)
	w.mu.Lock()
	w.writing = false
	if err != nil {
		w.err = err
	} else if cap(out) <= maxRetainedWriteBuf {
		w.spare = out[:0]
	}
	more = len(w.buf) > 0
	w.mu.Unlock()
	return more, err
}

// close poisons the writer and stops the flusher. Queued-but-unwritten
// frames are dropped; by the time close runs the socket is being torn
// down and their callers are failing with ErrConnLost anyway.
func (w *connWriter) close() {
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	w.mu.Unlock()
	w.once.Do(func() { close(w.done) })
}

// snapshot returns the counters.
func (w *connWriter) snapshot() writerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *connWriter) loop() {
	for {
		select {
		case <-w.kick:
		case <-w.done:
			return
		}
		for {
			w.mu.Lock()
			if w.err != nil {
				w.mu.Unlock()
				return
			}
			if w.writing || len(w.buf) == 0 {
				// An inline writer has the socket (it kicks again if
				// frames remain when it is done), or already wrote what
				// this kick was for.
				w.mu.Unlock()
				break
			}
			out := w.takeLocked()
			w.stats.flusherWrites++
			w.mu.Unlock()

			more, err := w.write(out)
			if err != nil {
				w.onDead()
				return
			}
			if !more {
				break
			}
		}
	}
}
