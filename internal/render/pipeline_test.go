package render

import (
	"errors"
	"image"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
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
		data, err := sdb.enc.Encode(serial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.putFrame(cinemastore.Key{Time: float64(i), Phi: 0.5, Theta: -0.25, Variable: "w"}, data); err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(frame, float64(i), 0.5, -0.25, "w"); err != nil {
			t.Fatal(err)
		}
		fillFrame(frame, 0xEE)
	}
	flushed, bytes, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if total := units.Bytes(db.w.TotalBytes()); bytes != total {
		t.Fatalf("Flush bytes = %d, db total %d", bytes, total)
	}
	// Flush returns the store's entries in submission order, and they are
	// byte-for-byte what encode + putFrame produce serially.
	got, want := db.w.Entries(), sdb.w.Entries()
	if len(flushed) != n || len(got) != n || len(want) != n {
		t.Fatalf("entries: %d flushed, %d stored, %d serial; want %d", len(flushed), len(got), len(want), n)
	}
	for i := range got {
		if flushed[i] != got[i] || got[i] != want[i] {
			t.Fatalf("entry %d: flushed %+v, stored %+v, serial %+v", i, flushed[i], got[i], want[i])
		}
	}

	// A second Flush covers only what came after the first.
	fillFrame(frame, 7)
	if err := w.Submit(frame, float64(n), 0, 0, "w"); err != nil {
		t.Fatal(err)
	}
	flushed, _, err = w.Flush()
	if err != nil || len(flushed) != 1 || flushed[0].Time != n {
		t.Fatalf("second Flush = (%+v, %v), want the one entry at time %d", flushed, err, n)
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
	flushed, _, err := w.Flush()
	if err == nil {
		t.Fatal("duplicate key error lost")
	}
	if len(flushed) != 1 {
		t.Fatalf("frames before poison = %d, want 1", len(flushed))
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
			flushed, _, err := w.Flush()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Flush error = %v, want one containing %q", err, tc.want)
			}
			if len(flushed) != 1 || len(db.w.Entries()) != 1 {
				t.Fatalf("Flush returned %d entries and the store holds %d, want 1 and 1: frames after the error must be dropped",
					len(flushed), len(db.w.Entries()))
			}
			// Sticky: a clean frame after the error is still dropped, and the
			// same error comes back.
			if err := w.Submit(good, 9, 0, 0, "w"); err != nil {
				t.Fatal(err)
			}
			flushed, _, err2 := w.Flush()
			if len(flushed) != 0 || err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second Flush = (%d entries, %v), want (0, %v)", len(flushed), err2, err)
			}
		})
	}
}
