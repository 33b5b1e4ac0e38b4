package render

import (
	"errors"
	"image"
	"strings"
	"testing"

	"insituviz/internal/leakcheck"
	"insituviz/internal/units"
)

func fillFrame(img *image.RGBA, v byte) {
	for i := range img.Pix {
		img.Pix[i] = v
	}
}

func TestPipelinedWriterRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	db, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db, 2)
	defer w.Close()

	// The writer must copy: the source frame is clobbered right after every
	// Submit, the way a reused render frame is.
	frame := image.NewRGBA(image.Rect(0, 0, 32, 16))
	serial := image.NewRGBA(image.Rect(0, 0, 32, 16))
	sdb, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		fillFrame(frame, byte(10*i+1))
		fillFrame(serial, byte(10*i+1))
		if _, err := sdb.AddImageAt(serial, float64(i), 0.5, -0.25, "w"); err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(frame, float64(i), 0.5, -0.25, "w"); err != nil {
			t.Fatal(err)
		}
		fillFrame(frame, 0xEE)
	}
	frames, bytes, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if frames != n {
		t.Fatalf("Flush frames = %d, want %d", frames, n)
	}
	if total := units.Bytes(db.w.TotalBytes()); bytes != total {
		t.Fatalf("Flush bytes = %d, db total %d", bytes, total)
	}
	// Byte-for-byte what a serial writer produces: same entry count and the
	// same per-frame sizes in the same order.
	got, want := db.w.Entries(), sdb.w.Entries()
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Bytes != want[i].Bytes || got[i].Time != want[i].Time {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A second Flush covers only what came after the first.
	fillFrame(frame, 7)
	if err := w.Submit(frame, float64(n), 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	frames, _, err = w.Flush()
	if err != nil || frames != 1 {
		t.Fatalf("second Flush = (%d, %v), want (1, nil)", frames, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
}

func TestPipelinedWriterErrors(t *testing.T) {
	defer leakcheck.Check(t)()
	db, err := NewCinemaDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db, 1)
	defer w.Close()
	if err := w.Submit(nil, 0, 0, 0, "w"); err == nil {
		t.Error("nil image accepted")
	}
	frame := image.NewRGBA(image.Rect(0, 0, 8, 8))
	if err := w.Submit(frame, 0, 0, 0, ""); err == nil {
		t.Error("empty field accepted")
	}
	// Duplicate axis tuples are a store error; it must surface at Flush and
	// poison the frames after it.
	for i := 0; i < 3; i++ {
		if err := w.Submit(frame, 1, 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := w.Flush()
	if err == nil {
		t.Fatal("duplicate key error lost")
	}
	if frames != 1 {
		t.Fatalf("frames before poison = %d, want 1", frames)
	}
	if cerr := w.Close(); cerr == nil {
		t.Fatal("Close should report the uncollected sticky error")
	}

	// A closed writer refuses work instead of sending on a closed channel.
	if err := w.Submit(frame, 2, 0, 0, "w"); !errors.Is(err, errWriterClosed) {
		t.Errorf("Submit after Close = %v, want %v", err, errWriterClosed)
	}
	if _, _, err := w.Flush(); !errors.Is(err, errWriterClosed) {
		t.Errorf("Flush after Close = %v, want %v", err, errWriterClosed)
	}
}

// TestPipelinedWriterErrorOrder pins which failure Flush reports now that
// two stages can fail: the first in submission order, whichever stage hit
// it and whichever hit its own first on the clock, with every later frame
// dropped rather than written.
func TestPipelinedWriterErrorOrder(t *testing.T) {
	good := image.NewRGBA(image.Rect(0, 0, 8, 8))
	empty := image.NewRGBA(image.Rectangle{}) // image/png rejects a 0×0 image
	type submit struct {
		img  *image.RGBA
		time float64
	}
	for _, tc := range []struct {
		name    string
		submits []submit
		want    string // substring of the Flush error
	}{
		{"encode error", []submit{{good, 0}, {empty, 1}, {good, 2}}, "png encode"},
		{"put error", []submit{{good, 0}, {good, 0}, {good, 2}}, "write image"},
		// The encoder can reach the empty frame while the putter is still
		// inside frame 0's fsync; the duplicate was submitted first and wins.
		{"put error before encode error", []submit{{good, 0}, {good, 0}, {empty, 1}, {good, 2}}, "write image"},
		{"encode error before put error", []submit{{good, 0}, {empty, 1}, {good, 0}, {good, 2}}, "png encode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			db, err := NewCinemaDB(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			w := NewPipelinedCinemaWriter(db, 4)
			defer w.Close()
			for _, s := range tc.submits {
				if err := w.Submit(s.img, s.time, 0, 0, "w"); err != nil {
					t.Fatal(err)
				}
			}
			frames, _, err := w.Flush()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Flush error = %v, want one containing %q", err, tc.want)
			}
			if frames != 1 || len(db.w.Entries()) != 1 {
				t.Fatalf("Flush counted %d frames and the store holds %d, want 1 and 1: frames after the error must be dropped",
					frames, len(db.w.Entries()))
			}
			// Sticky: a clean frame after the error is still dropped, and the
			// same error comes back.
			if err := w.Submit(good, 9, 0, 0, "w"); err != nil {
				t.Fatal(err)
			}
			frames, _, err2 := w.Flush()
			if frames != 0 || err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second Flush = (%d, %v), want (0, %v)", frames, err2, err)
			}
		})
	}
}
