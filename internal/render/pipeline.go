package render

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"sync"
	"sync/atomic"

	"insituviz/internal/cinemastore"
	"insituviz/internal/units"
)

// pipeJob is one frame on its way through the writer: Submit fills frame
// and key, the encoder fills png (or err), the putter stores it and hands
// the job, buffers and all, back to the free list. A job with ack set is a
// flush barrier and carries nothing else.
type pipeJob struct {
	frame  *image.RGBA   // the staged copy, one of staged
	staged []*image.RGBA // staging buffers, one per frame geometry seen
	key    cinemastore.Key
	png    bytes.Buffer
	err    error
	ack    chan pipeTotals
}

// maxStaged bounds a job's staging buffers. A run's frames come in one or
// two geometries (the equirectangular frames and the square ortho views).
const maxStaged = 4

// pipeTotals is the accounting the putter hands back at a flush barrier:
// the entries it wrote since the previous barrier, in submission order,
// their byte total, and the first error either stage hit.
type pipeTotals struct {
	entries []cinemastore.Entry
	bytes   units.Bytes
	err     error
}

var errWriterClosed = errors.New("render: writer closed")

// PipelinedCinemaWriter overlaps PNG encoding and store writes with each
// other and with the caller's next render. Submit copies the frame into an
// owned staging buffer and returns as soon as the copy is queued; an
// encoder goroutine turns staged frames into PNG bytes in the job's own
// buffer, and a putter goroutine behind it hashes, writes and fsyncs them
// through the CinemaDB. Each stage is one goroutine joined to the next by
// a FIFO channel, so the store sees exactly the sequential write pattern
// it would from a serial caller while frame k+1 encodes during frame k's
// fsync wait. Flush is the accounting barrier: it travels the same two
// queues, so when it is answered every earlier frame has been written, and
// it returns the store entries written since the previous barrier, in
// submission order, their byte total, and the first encode or write error
// in submission order (frames after an error are dropped, not written).
// It is CinemaDB's only frame-writing path: the in-process run and the
// in-transit viz worker both store frames through it.
//
// One goroutine may Submit at a time, and the underlying CinemaDB must not
// be used directly between a Submit and the next Flush — the stage
// goroutines own it in that window. Close releases the goroutines and is
// safe to call more than once and after errors; a final implicit barrier
// surfaces any error not yet collected by Flush. Submit and Flush after
// Close return an error.
type PipelinedCinemaWriter struct {
	db      *CinemaDB
	jobs    chan *pipeJob // Submit → encoder
	encoded chan *pipeJob // encoder → putter
	free    chan *pipeJob // putter → Submit
	done    chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// NewPipelinedCinemaWriter wraps db with the asynchronous encode and put
// stages. Up to depth+2 frames are in flight at once — depth queued, one
// encoding, one being written (a non-positive depth selects a small
// default) — and Submit blocks when all are. Memory cost is that many
// staging frames and PNG buffers, recycled for the writer's lifetime.
func NewPipelinedCinemaWriter(db *CinemaDB, depth int) *PipelinedCinemaWriter {
	if depth < 1 {
		depth = 2
	}
	n := depth + 2
	w := &PipelinedCinemaWriter{
		db: db,
		// Every frame job comes from the n in free, so n slots per queue
		// means a stage never blocks handing a frame on; only a barrier can
		// find a queue full, and waiting is what a barrier is for.
		jobs:    make(chan *pipeJob, n),
		encoded: make(chan *pipeJob, n),
		free:    make(chan *pipeJob, n),
		done:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		w.free <- &pipeJob{}
	}
	go w.encode()
	go w.put()
	return w
}

// encode is the first stage: PNG-encode each staged frame into its job's
// buffer. Barriers and failures pass through untouched, in order.
func (w *PipelinedCinemaWriter) encode() {
	defer close(w.encoded)
	for j := range w.jobs {
		if j.ack == nil {
			j.png.Reset()
			j.err = w.db.enc.encodeTo(&j.png, j.frame)
		}
		w.encoded <- j
	}
}

// put is the second stage: store each encoded frame, answer barriers, and
// recycle jobs.
func (w *PipelinedCinemaWriter) put() {
	defer close(w.done)
	var t pipeTotals
	for j := range w.encoded {
		if j.ack != nil {
			j.ack <- t
			// Accounting restarts at the barrier; the error stays sticky so
			// a Close after a failed Flush reports it again rather than
			// pretending the tail of the run was clean.
			t.entries, t.bytes = nil, 0
			continue
		}
		// Once poisoned, drop: Flush surfaces the first error instead of a
		// cascade of follow-on failures.
		if t.err == nil {
			t.err = j.err
		}
		if t.err == nil {
			e, err := w.db.putFrame(j.key, j.png.Bytes())
			if err != nil {
				t.err = err
			} else {
				t.entries = append(t.entries, e)
				t.bytes += units.Bytes(e.Bytes)
			}
		}
		w.free <- j
	}
}

// stage copies src into the job's staging buffer of src's geometry,
// allocating one the first time the job sees that geometry. Buffers are
// kept per geometry, so a run that alternates equirectangular frames and
// ortho views does not reallocate (and discard) a staging frame at every
// switch: the steady state is one bulk copy with no allocation.
func (j *pipeJob) stage(src *image.RGBA) {
	j.frame = nil
	for _, f := range j.staged {
		if f.Rect == src.Rect {
			j.frame = f
			break
		}
	}
	if j.frame == nil {
		if len(j.staged) == maxStaged {
			j.staged = j.staged[1:]
		}
		j.frame = image.NewRGBA(src.Rect)
		j.staged = append(j.staged, j.frame)
	}
	dst := j.frame
	if dst.Stride == src.Stride && len(dst.Pix) == len(src.Pix) {
		copy(dst.Pix, src.Pix)
		return
	}
	// Stride mismatch (src is a sub-image): copy the visible rows.
	n := 4 * src.Rect.Dx()
	for y := 0; y < src.Rect.Dy(); y++ {
		copy(dst.Pix[y*dst.Stride:y*dst.Stride+n], src.Pix[y*src.Stride:y*src.Stride+n])
	}
}

// Submit stages img for encoding under the full Cinema axis tuple and
// returns once the copy is queued — the caller may immediately rerender
// into img. Blocks only when every job is in flight (the stages are behind
// by depth+2 frames). Encode and write errors surface at the next Flush,
// in submission order.
func (w *PipelinedCinemaWriter) Submit(img *image.RGBA, simTime, phi, theta float64, field string) error {
	if img == nil {
		return fmt.Errorf("render: nil image")
	}
	if field == "" {
		return fmt.Errorf("render: empty field name")
	}
	if w.closed.Load() {
		return errWriterClosed
	}
	j := <-w.free
	j.stage(img)
	j.key = cinemastore.Key{Time: simTime, Phi: phi, Theta: theta, Variable: field}
	w.jobs <- j
	return nil
}

// barrier sends a flush barrier down both stages and waits for the putter
// to answer it.
func (w *PipelinedCinemaWriter) barrier() pipeTotals {
	ack := make(chan pipeTotals, 1)
	w.jobs <- &pipeJob{ack: ack}
	return <-ack
}

// Flush waits for every submitted frame to be encoded and written, then
// returns the entries written since the previous Flush, in submission
// order, their byte total, and the first error encountered. After an
// error the skipped frames are not retried; the caller decides whether to
// abort or keep sampling.
func (w *PipelinedCinemaWriter) Flush() ([]cinemastore.Entry, units.Bytes, error) {
	if w.closed.Load() {
		return nil, 0, errWriterClosed
	}
	t := w.barrier()
	return t.entries, t.bytes, t.err
}

// Close drains both queues, stops the stage goroutines, and returns any
// error not yet collected by a Flush. Idempotent; later calls return the
// first result.
func (w *PipelinedCinemaWriter) Close() error {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		w.closeErr = w.barrier().err
		close(w.jobs)
		<-w.done
	})
	return w.closeErr
}
