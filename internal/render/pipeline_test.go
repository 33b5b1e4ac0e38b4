package render

import (
	"errors"
	"image"
	"strings"
	"testing"
	"time"

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
	db, err := cinemastore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db, 2)
	defer w.Close()

	// The writer must copy: the source frame is clobbered right after every
	// Submit, the way a reused render frame is.
	frame := image.NewRGBA(image.Rect(0, 0, 32, 16))
	serial := image.NewRGBA(image.Rect(0, 0, 32, 16))
	sdb, err := cinemastore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var enc PNGEncoder
	const n = 8
	for i := 0; i < n; i++ {
		fillFrame(frame, byte(10*i+1))
		fillFrame(serial, byte(10*i+1))
		data, err := enc.Encode(serial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.Put(cinemastore.Key{Time: float64(i), Phi: 0.5, Theta: -0.25, Variable: "w"}, data); err != nil {
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
	// Flush returns the store's entries in submission order, and they are
	// byte-for-byte what Encode + Put produce serially.
	got, want := db.Entries(), sdb.Entries()
	var total units.Bytes
	for _, e := range got {
		total += units.Bytes(e.Bytes)
	}
	if bytes != total {
		t.Fatalf("Flush bytes = %d, db total %d", bytes, total)
	}
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
	db, err := cinemastore.Create(t.TempDir())
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
		// inside frame 0's write; the duplicate was submitted first and wins.
		{"put error before encode error", []submit{{good, 0}, {good, 0}, {empty, 1}, {good, 2}}, "write image"},
		{"encode error before put error", []submit{{good, 0}, {empty, 1}, {good, 0}, {good, 2}}, "png encode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			db, err := cinemastore.Create(t.TempDir())
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
			if len(flushed) != 1 || len(db.Entries()) != 1 {
				t.Fatalf("Flush returned %d entries and the store holds %d, want 1 and 1: frames after the error must be dropped",
					len(flushed), len(db.Entries()))
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

// TestPipelinedWriterMarks pins the asynchronous barrier: marks left
// outstanding answer in order, each with only its own frames; a sticky
// error reaches the barrier it happened before and every later one; and
// Close does not wait for anyone to read a mark.
func TestPipelinedWriterMarks(t *testing.T) {
	defer leakcheck.Check(t)()
	db, err := cinemastore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db, 1)
	defer w.Close()
	frame := image.NewRGBA(image.Rect(0, 0, 8, 8))
	submit := func(simTime float64) {
		t.Helper()
		fillFrame(frame, byte(simTime)+1)
		if err := w.Submit(frame, simTime, 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
	}
	mark := func() <-chan Totals {
		t.Helper()
		m, err := w.Mark()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	submit(0)
	submit(1)
	first := mark()
	submit(2)
	second := mark()
	for i, tc := range []struct {
		mark  <-chan Totals
		times []float64
	}{{first, []float64{0, 1}}, {second, []float64{2}}} {
		got := <-tc.mark
		if got.Err != nil || len(got.Entries) != len(tc.times) {
			t.Fatalf("mark %d = %d entries, %v; want %d, nil", i, len(got.Entries), got.Err, len(tc.times))
		}
		var bytes units.Bytes
		for j, e := range got.Entries {
			if e.Time != tc.times[j] {
				t.Fatalf("mark %d entry %d at time %v, want %v", i, j, e.Time, tc.times[j])
			}
			bytes += units.Bytes(e.Bytes)
		}
		if got.Bytes != bytes {
			t.Fatalf("mark %d bytes = %d, entries sum to %d", i, got.Bytes, bytes)
		}
	}

	// A duplicate key fails the frame before the third mark: that mark and
	// the two after it report it, and nothing after it is written.
	submit(3)
	submit(3)
	failed := mark()
	submit(4)
	later := mark()
	last := mark()
	got := <-failed
	if got.Err == nil || len(got.Entries) != 1 {
		t.Fatalf("failing mark = %d entries, %v; want 1 entry and the duplicate-key error", len(got.Entries), got.Err)
	}
	for i, m := range []<-chan Totals{later, last} {
		if after := <-m; after.Err == nil || after.Err.Error() != got.Err.Error() || len(after.Entries) != 0 {
			t.Fatalf("mark %d after the error = %d entries, %v; want 0 and %v", i, len(after.Entries), after.Err, got.Err)
		}
	}
	if n := len(db.Entries()); n != 4 {
		t.Fatalf("store holds %d entries, want 4", n)
	}

	// Marks nobody reads must not hold Close up.
	fresh := NewPipelinedCinemaWriter(db, 1)
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	for i := 0; i < 3; i++ {
		if err := fresh.Submit(img, float64(5+i), 0, 0, "w"); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Mark(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- fresh.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on unread marks")
	}
	if _, err := fresh.Mark(); !errors.Is(err, errWriterClosed) {
		t.Errorf("Mark after Close = %v, want %v", err, errWriterClosed)
	}
}
