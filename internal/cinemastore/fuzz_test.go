package cinemastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeIndex: for any bytes, DecodeIndex either refuses them with a
// typed error — a JSON syntax or type error, a *FormatError, or an
// *EntryError — or returns entries a Writer could have recorded, in
// canonical order, that EncodeIndex → DecodeIndex gives back equal and
// whose encoding is a fixed point. It never panics.
func FuzzDecodeIndex(f *testing.F) {
	var entries []Entry
	for i, v := range []string{"okubo_weiss", "okubo_weiss_cores", "okubo_weiss_view0"} {
		k := Key{Time: float64(3600 * (i + 1)), Phi: float64(i) / 2, Variable: v}
		payload := string(frame(k, 40+i))
		entries = append(entries, Entry{Key: k, File: sanitize(v) + ".png", Bytes: int64(len(payload)), Digest: digestOf(payload)})
	}
	committed, err := EncodeIndex(entries)
	if err != nil {
		f.Fatal(err)
	}
	d := digestOf("png")
	for _, seed := range []string{
		string(committed),
		string(committed[:len(committed)/2]),
		`{"type": "simple-image-database", "version": "1.0", "images": [{"file": "a.png", "time": 3600, "field": "okubo_weiss", "bytes": 3}]}`,
		`{"type": "insituviz-cinema-store", "version": "2.0", "images": [{"file": "a.png", "time": 3600, "variable": "okubo_weiss", "bytes": 3}]}`,
		`{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 3600, "variable": "okubo_weiss", "bytes": 3}]}`,
		`{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "../a.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}]}`,
		`{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}, {"file": "b.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeIndex(data)
		if err != nil {
			var (
				syn *json.SyntaxError
				typ *json.UnmarshalTypeError
				fe  *FormatError
				ee  *EntryError
			)
			if !errors.As(err, &syn) && !errors.As(err, &typ) && !errors.As(err, &fe) && !errors.As(err, &ee) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if got != nil {
				t.Fatalf("error %v with %d entries", err, len(got))
			}
			return
		}
		for i, e := range got {
			if verr := e.validate(); verr != nil {
				t.Fatalf("accepted entry %d: %v", i, verr)
			}
			if i > 0 && !entryLess(got[i-1], e) {
				t.Fatalf("entries %d and %d out of canonical order: %+v, %+v", i-1, i, got[i-1], e)
			}
		}
		enc, err := EncodeIndex(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeIndex(enc)
		if err != nil {
			t.Fatalf("re-encoded index refused: %v\n%s", err, enc)
		}
		if !slices.Equal(back, got) {
			t.Fatalf("round trip changed the entries:\n got %+v\nwant %+v", back, got)
		}
		again, err := EncodeIndex(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point (%v):\n%s\nthen\n%s", err, enc, again)
		}
	})
}

// entryLess is the strict canonical order: (variable, time, phi, theta).
func entryLess(a, b Entry) bool {
	if c := strings.Compare(a.Variable, b.Variable); c != 0 {
		return c < 0
	}
	for _, p := range [...][2]float64{{a.Time, b.Time}, {a.Phi, b.Phi}, {a.Theta, b.Theta}} {
		if p[0] != p[1] {
			return p[0] < p[1]
		}
	}
	return false
}
