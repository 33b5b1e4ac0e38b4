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
	frame image.Image       // the staged copy, one of rgba or pal
	rgba  []*image.RGBA     // staging buffers, one per frame geometry seen
	pal   []*image.Paletted // index-colour staging buffers, likewise
	key   cinemastore.Key
	png   bytes.Buffer
	err   error
	ack   chan Totals
}

// maxStaged bounds a job's staging buffers of each kind. A run's frames
// come in one or two geometries (the equirectangular frames and the square
// ortho views).
const maxStaged = 4

// Totals is the accounting the putter hands back at a flush barrier.
type Totals struct {
	// Entries are the store entries written since the previous barrier,
	// in submission order, and Bytes their total.
	Entries []cinemastore.Entry
	Bytes   units.Bytes
	// Err is the first encode or write error either stage hit, at this
	// barrier or any earlier one: it is sticky.
	Err error
}

var errWriterClosed = errors.New("render: writer closed")

// PipelinedCinemaWriter overlaps PNG encoding and store writes with each
// other and with the caller's next render. Submit copies the frame into an
// owned staging buffer and returns as soon as the copy is queued; an
// encoder goroutine turns staged frames into PNG bytes in the job's own
// buffer, and a putter goroutine behind it hashes and writes them through
// the store's cinemastore.Writer (which fsyncs them later, at its Commit).
// Each stage is one goroutine joined to the next by a FIFO channel, so the
// store sees exactly the sequential write pattern it would from a serial
// caller while frame k+1 encodes during frame k's write.
//
// Mark is the accounting barrier: it travels the same two queues, and the
// channel it returns is answered once every earlier frame has been
// written, with the store entries written since the previous barrier, in
// submission order, their byte total, and the first encode or write error
// in submission order (frames after an error are dropped, not written).
// Mark returns at once, so a caller can render the next sample while this
// one drains and collect the totals later; several marks may be
// outstanding and are answered in order. Flush is Mark followed by the
// wait. The writer is the only path that encodes and puts frames: the
// in-process run and the in-transit viz worker both store frames through
// it.
//
// One goroutine may Submit and Mark at a time, and the underlying store
// writer must not be used directly between a Submit and the answer to the
// next barrier — the stage goroutines own it in that window. Close releases
// the goroutines and is safe to call more than once, after errors and with
// marks still unread; a final implicit barrier surfaces any error not yet
// collected. Submit, Mark and Flush after Close return an error.
type PipelinedCinemaWriter struct {
	db      *cinemastore.Writer
	enc     PNGEncoder    // owned by the encode stage
	jobs    chan *pipeJob // Submit → encoder
	encoded chan *pipeJob // encoder → putter
	free    chan *pipeJob // putter → Submit
	done    chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// NewPipelinedCinemaWriter puts frames into db through asynchronous encode
// and put stages. Up to depth+2 frames are in flight at once — depth
// queued, one encoding, one being written (a non-positive depth selects a
// small default) — and Submit blocks when all are. Memory cost is that many
// staging frames and PNG buffers, recycled for the writer's lifetime.
func NewPipelinedCinemaWriter(db *cinemastore.Writer, depth int) *PipelinedCinemaWriter {
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
			j.err = w.enc.encodeTo(&j.png, j.frame)
		}
		w.encoded <- j
	}
}

// put is the second stage: store each encoded frame, answer barriers, and
// recycle jobs.
func (w *PipelinedCinemaWriter) put() {
	defer close(w.done)
	var t Totals
	for j := range w.encoded {
		if j.ack != nil {
			j.ack <- t
			// Accounting restarts at the barrier; the error stays sticky so
			// a Close after a failed barrier reports it again rather than
			// pretending the tail of the run was clean.
			t.Entries, t.Bytes = nil, 0
			continue
		}
		// Once poisoned, drop: the barrier surfaces the first error instead
		// of a cascade of follow-on failures.
		if t.Err == nil {
			t.Err = j.err
		}
		if t.Err == nil {
			e, err := w.db.Put(j.key, j.png.Bytes())
			if err != nil {
				t.Err = fmt.Errorf("render: write image: %w", err)
			} else {
				t.Entries = append(t.Entries, e)
				t.Bytes += units.Bytes(e.Bytes)
			}
		}
		w.free <- j
	}
}

// stage copies src into the job's staging buffer of src's kind and
// geometry, allocating one the first time the job sees that pair. Buffers
// are kept per geometry, so a run that alternates equirectangular frames
// and ortho views does not reallocate (and discard) a staging frame at
// every switch: the steady state is one bulk copy with no allocation. An
// index-colour frame stages its one byte per pixel and its palette.
func (j *pipeJob) stage(src image.Image) error {
	switch src := src.(type) {
	case *image.RGBA:
		if src == nil {
			break
		}
		var dst *image.RGBA
		j.rgba, dst = stagingFrame(j.rgba, src.Rect, image.NewRGBA)
		copyRows(dst.Pix, dst.Stride, src.Pix, src.Stride, 4*src.Rect.Dx(), src.Rect.Dy())
		j.frame = dst
		return nil
	case *image.Paletted:
		if src == nil {
			break
		}
		var dst *image.Paletted
		j.pal, dst = stagingFrame(j.pal, src.Rect, newPaletted)
		copyRows(dst.Pix, dst.Stride, src.Pix, src.Stride, src.Rect.Dx(), src.Rect.Dy())
		dst.Palette = append(dst.Palette[:0], src.Palette...)
		j.frame = dst
		return nil
	case nil:
	default:
		return fmt.Errorf("render: cannot stage a %T frame", src)
	}
	return fmt.Errorf("render: nil image")
}

func newPaletted(r image.Rectangle) *image.Paletted { return image.NewPaletted(r, nil) }

// stagingFrame returns the buffer of bufs with bounds r, making one with
// fresh (and evicting the oldest past maxStaged) when there is none.
func stagingFrame[F interface{ Bounds() image.Rectangle }](bufs []F, r image.Rectangle, fresh func(image.Rectangle) F) ([]F, F) {
	for _, f := range bufs {
		if f.Bounds() == r {
			return bufs, f
		}
	}
	if len(bufs) == maxStaged {
		bufs = bufs[1:]
	}
	f := fresh(r)
	return append(bufs, f), f
}

// copyRows copies rows rows of n bytes between pixel buffers of the given
// strides: one bulk copy when they match, row by row for a sub-image.
func copyRows(dst []byte, dstStride int, src []byte, srcStride, n, rows int) {
	if dstStride == srcStride && len(dst) == len(src) {
		copy(dst, src)
		return
	}
	for y := 0; y < rows; y++ {
		copy(dst[y*dstStride:y*dstStride+n], src[y*srcStride:y*srcStride+n])
	}
}

// Submit stages img — an *image.RGBA or an *image.Paletted — for encoding
// under the full Cinema axis tuple and returns once the copy is queued:
// the caller may immediately rerender into img. Blocks only when every job
// is in flight (the stages are behind by depth+2 frames). Encode and write
// errors surface at the next barrier, in submission order.
func (w *PipelinedCinemaWriter) Submit(img image.Image, simTime, phi, theta float64, field string) error {
	if field == "" {
		return fmt.Errorf("render: empty field name")
	}
	if w.closed.Load() {
		return errWriterClosed
	}
	j := <-w.free
	if err := j.stage(img); err != nil {
		w.free <- j
		return err
	}
	j.key = cinemastore.Key{Time: simTime, Phi: phi, Theta: theta, Variable: field}
	w.jobs <- j
	return nil
}

// barrier sends a flush barrier down both stages and returns the channel
// the putter answers it on. The channel holds one answer, so the putter
// never waits for a caller to read it.
func (w *PipelinedCinemaWriter) barrier() <-chan Totals {
	ack := make(chan Totals, 1)
	w.jobs <- &pipeJob{ack: ack}
	return ack
}

// Mark queues a flush barrier behind every frame submitted so far and
// returns the channel its Totals arrive on once those frames are encoded
// and written. It waits only when the queue ahead of the encoder is full.
func (w *PipelinedCinemaWriter) Mark() (<-chan Totals, error) {
	if w.closed.Load() {
		return nil, errWriterClosed
	}
	return w.barrier(), nil
}

// Flush waits for every submitted frame to be encoded and written, then
// returns the entries written since the previous barrier, in submission
// order, their byte total, and the first error encountered. After an
// error the skipped frames are not retried; the caller decides whether to
// abort or keep sampling.
func (w *PipelinedCinemaWriter) Flush() ([]cinemastore.Entry, units.Bytes, error) {
	mark, err := w.Mark()
	if err != nil {
		return nil, 0, err
	}
	t := <-mark
	return t.Entries, t.Bytes, t.Err
}

// Close drains both queues, stops the stage goroutines, and returns any
// error not yet collected by a Flush. Idempotent; later calls return the
// first result.
func (w *PipelinedCinemaWriter) Close() error {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		w.closeErr = (<-w.barrier()).Err
		close(w.jobs)
		<-w.done
	})
	return w.closeErr
}
