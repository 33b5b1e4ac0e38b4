package render

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"math/rand/v2"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/leakcheck"
	"insituviz/internal/units"
)

// serialWriter is the sequential reference for PipelinedCinemaWriter:
// encode and put each frame in the caller's goroutine, stop writing at the
// first error and keep reporting it, and hand back what a barrier covers.
type serialWriter struct {
	db      *cinemastore.Writer
	enc     PNGEncoder
	pending Totals
}

func (s *serialWriter) submit(img image.Image, key cinemastore.Key) {
	if s.pending.Err != nil {
		return
	}
	data, err := s.enc.Encode(img)
	if err != nil {
		s.pending.Err = err
		return
	}
	e, err := s.db.Put(key, data)
	if err != nil {
		s.pending.Err = fmt.Errorf("render: write image: %w", err)
		return
	}
	s.pending.Entries = append(s.pending.Entries, e)
	s.pending.Bytes += units.Bytes(e.Bytes)
}

func (s *serialWriter) mark() Totals {
	t := s.pending
	s.pending.Entries, s.pending.Bytes = nil, 0
	return t
}

// sameTotals reports how got differs from want, or "" when they agree:
// the same entries in the same order, the same byte total, and the same
// error.
func sameTotals(got, want Totals) string {
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		return fmt.Sprintf("error %v, want %v", got.Err, want.Err)
	}
	if got.Bytes != want.Bytes || len(got.Entries) != len(want.Entries) {
		return fmt.Sprintf("%d entries of %d bytes, want %d of %d", len(got.Entries), got.Bytes, len(want.Entries), want.Bytes)
	}
	for i := range got.Entries {
		if got.Entries[i] != want.Entries[i] {
			return fmt.Sprintf("entry %d is %+v, want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
	return ""
}

// modelFrame draws a random frame of one of two geometries, RGBA or
// index-colour; empty, it is one the PNG encoder refuses.
func modelFrame(rng *rand.Rand, empty bool) image.Image {
	r := image.Rect(0, 0, 16, 8)
	if rng.IntN(2) == 0 {
		r = image.Rect(0, 0, 8, 8)
	}
	if empty {
		r = image.Rectangle{}
	}
	if rng.IntN(2) == 0 {
		img := image.NewRGBA(r)
		for i := range img.Pix {
			img.Pix[i] = byte(rng.IntN(4) * 60)
			if i%4 == 3 {
				img.Pix[i] = 0xff
			}
		}
		return img
	}
	pal := make(color.Palette, 1+rng.IntN(5))
	for i := range pal {
		pal[i] = color.NRGBA{R: byte(rng.IntN(256)), G: byte(i), B: 7, A: 0xff}
	}
	img := image.NewPaletted(r, pal)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.IntN(len(pal)))
	}
	return img
}

// clobber overwrites a submitted frame in place, pixels and palette, the
// way the renderer reuses its frames: the writer must have copied both.
func clobber(img image.Image) {
	switch img := img.(type) {
	case *image.RGBA:
		clear(img.Pix)
	case *image.Paletted:
		clear(img.Pix)
		for i := range img.Palette {
			img.Palette[i] = color.NRGBA{R: 1, G: 2, B: 3, A: 0xff}
		}
	}
}

// TestPipelinedWriterMatchesSerialModel runs random sequences of Submit
// (RGBA and index-colour frames in two geometries, each clobbered once
// submitted), Mark, Flush and Close against the serial reference. Put
// errors are injected as resubmitted axis tuples, which the store refuses,
// and encode errors as empty frames. Every barrier must report the
// reference's entries in submission order and its sticky first error,
// marks must be answered in the order they were made, and Close must
// report the sticky error and refuse later work.
func TestPipelinedWriterMatchesSerialModel(t *testing.T) {
	defer leakcheck.Check(t)()
	for seed := range uint64(40) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			db, err := cinemastore.Create(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sdb, err := cinemastore.Create(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			w := NewPipelinedCinemaWriter(db, rng.IntN(4))
			defer w.Close()
			ref := &serialWriter{db: sdb}

			type pendingMark struct {
				ch   <-chan Totals
				want Totals
			}
			var marks []pendingMark
			// readMark collects mark i, out of order when i > 0: every mark
			// before it must already hold its answer.
			readMark := func(i int) {
				t.Helper()
				got := <-marks[i].ch
				for j := range i {
					if len(marks[j].ch) != 1 {
						t.Fatalf("mark %d answered before mark %d", i, j)
					}
				}
				if d := sameTotals(got, marks[i].want); d != "" {
					t.Fatalf("mark: %s", d)
				}
				marks = append(marks[:i], marks[i+1:]...)
			}

			next := 0.0
			var used []float64
			for op := range 24 + rng.IntN(24) {
				switch k := rng.IntN(20); {
				case k < 13: // Submit, now and then of a stored key or an empty frame
					at := next
					next++
					empty := false
					switch rng.IntN(16) {
					case 0:
						if len(used) > 0 {
							at = used[rng.IntN(len(used))]
						}
					case 1:
						empty = true
					}
					used = append(used, at)
					img := modelFrame(rng, empty)
					key := cinemastore.Key{Time: at, Variable: "w"}
					ref.submit(img, key)
					if err := w.Submit(img, at, 0, 0, "w"); err != nil {
						t.Fatalf("op %d: Submit: %v", op, err)
					}
					clobber(img)
				case k < 16:
					ch, err := w.Mark()
					if err != nil {
						t.Fatal(err)
					}
					marks = append(marks, pendingMark{ch, ref.mark()})
				case k < 18:
					entries, bytes, err := w.Flush()
					want := ref.mark()
					// Flush answers after every outstanding mark.
					for _, m := range marks {
						if len(m.ch) != 1 {
							t.Fatalf("op %d: Flush returned before an earlier mark was answered", op)
						}
					}
					if d := sameTotals(Totals{entries, bytes, err}, want); d != "" {
						t.Fatalf("op %d: Flush: %s", op, d)
					}
				default:
					if len(marks) > 0 {
						readMark(rng.IntN(len(marks)))
					}
				}
			}
			wantErr := ref.mark().Err
			if err := w.Close(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Close = %v, want %v", err, wantErr)
			}
			for len(marks) > 0 {
				readMark(len(marks) - 1)
			}
			if err := w.Submit(modelFrame(rng, false), next, 0, 0, "w"); !errors.Is(err, errWriterClosed) {
				t.Fatalf("Submit after Close = %v", err)
			}
			if _, err := w.Mark(); !errors.Is(err, errWriterClosed) {
				t.Fatalf("Mark after Close = %v", err)
			}
			if got, want := db.Entries(), sdb.Entries(); len(got) != len(want) {
				t.Fatalf("store holds %d entries, the reference's %d", len(got), len(want))
			}
		})
	}
}
