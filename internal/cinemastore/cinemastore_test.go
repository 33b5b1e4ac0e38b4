package cinemastore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"insituviz/internal/provenance"
)

// frame fabricates a distinguishable frame payload for a key.
func frame(k Key, n int) []byte {
	b := []byte(fmt.Sprintf("PNG|%s|%g|%g|%g|", k.Variable, k.Time, k.Phi, k.Theta))
	for len(b) < n {
		b = append(b, byte(len(b)))
	}
	return b
}

// buildStore writes a small 2-variable, 2-camera, 3-time database.
func buildStore(t *testing.T, dir string) []Entry {
	t.Helper()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for _, v := range []string{"okubo_weiss", "vorticity"} {
		for _, cam := range [][2]float64{{0, 0}, {math.Pi / 2, 0.1}} {
			for _, tm := range []float64{3600, 7200, 10800} {
				k := Key{Time: tm, Phi: cam[0], Theta: cam[1], Variable: v}
				e, err := w.Put(k, frame(k, 64))
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
		}
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestWriteOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wrote := buildStore(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(wrote) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(wrote))
	}
	var total int64
	for _, e := range wrote {
		total += e.Bytes
		i, ok := s.LookupIndex(e.Key)
		if !ok {
			t.Fatalf("Lookup(%+v) missed", e.Key)
		}
		got := s.EntryAt(i)
		if got != e {
			t.Errorf("Lookup(%+v) = %+v, want %+v", e.Key, got, e)
		}
		data, err := s.ReadFrame(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, frame(e.Key, 64)) {
			t.Errorf("frame bytes for %+v differ", e.Key)
		}
	}
	if s.TotalBytes() != total {
		t.Errorf("TotalBytes = %d, want %d", s.TotalBytes(), total)
	}
	if got := s.Variables(); len(got) != 2 || got[0] != "okubo_weiss" || got[1] != "vorticity" {
		t.Errorf("Variables = %v", got)
	}
}

func TestScanCanonicalOrder(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := s.Entries()
	if len(seen) != s.Len() {
		t.Fatalf("scanned %d of %d", len(seen), s.Len())
	}
	for i := 1; i < len(seen); i++ {
		a, b := seen[i-1], seen[i]
		if a.Variable > b.Variable {
			t.Fatalf("scan order broken at %d: %+v after %+v", i, b, a)
		}
		if a.Variable == b.Variable && a.Time > b.Time {
			t.Fatalf("time order broken at %d", i)
		}
	}
}

// TestIndexOrderIgnoresPutOrder: frames put in a shuffled order are
// written to the index, decoded and opened in canonical order —
// variable, then time, then phi, then theta — whatever order they came
// in. Every other test puts frames in time order, so without this one
// the sort could lose its time comparison unnoticed.
func TestIndexOrderIgnoresPutOrder(t *testing.T) {
	var want []Key
	for _, v := range []string{"okubo_weiss", "vorticity"} {
		for _, tm := range []float64{-3600, 0, 3600, 7200} {
			for _, phi := range []float64{-1, 0.5} {
				for _, theta := range []float64{0, 0.25, 1} {
					want = append(want, Key{Time: tm, Phi: phi, Theta: theta, Variable: v})
				}
			}
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		put := append([]Key(nil), want...)
		rand.New(rand.NewSource(seed)).Shuffle(len(put), func(i, j int) { put[i], put[j] = put[j], put[i] })
		dir := t.TempDir()
		w, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range put {
			if _, err := w.Put(k, frame(k, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, IndexFile))
		if err != nil {
			t.Fatal(err)
		}
		var doc jsonIndex
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		written := make([]Key, len(doc.Images))
		for i, je := range doc.Images {
			written[i] = Key{Time: je.Time, Phi: je.Phi, Theta: je.Theta, Variable: je.Variable}
		}
		decoded, err := DecodeIndex(data)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Key{"written": written, "decoded": keysOf(decoded), "opened": keysOf(s.Entries())} {
			if !slices.Equal(got, want) {
				t.Errorf("seed %d: %s index order differs from (variable, time, phi, theta):\n got %v\nwant %v", seed, name, got, want)
			}
		}
	}
}

func keysOf(entries []Entry) []Key {
	keys := make([]Key, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

func TestNearestLookup(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query Key
		want  Key
	}{
		// Exact key resolves to itself.
		{Key{Time: 7200, Variable: "okubo_weiss"}, Key{Time: 7200, Variable: "okubo_weiss"}},
		// Off-grid time snaps to the nearest sample; ties go earlier.
		{Key{Time: 5000, Variable: "okubo_weiss"}, Key{Time: 3600, Variable: "okubo_weiss"}},
		{Key{Time: 5400, Variable: "okubo_weiss"}, Key{Time: 3600, Variable: "okubo_weiss"}},
		{Key{Time: 1e9, Variable: "okubo_weiss"}, Key{Time: 10800, Variable: "okubo_weiss"}},
		{Key{Time: -50, Variable: "okubo_weiss"}, Key{Time: 3600, Variable: "okubo_weiss"}},
		// Off-grid camera snaps to the nearest view, with phi wrapping:
		// phi = -3pi/2 is the same direction as pi/2.
		{Key{Time: 3600, Phi: 1.4, Theta: 0, Variable: "okubo_weiss"},
			Key{Time: 3600, Phi: math.Pi / 2, Theta: 0.1, Variable: "okubo_weiss"}},
		{Key{Time: 3600, Phi: -3 * math.Pi / 2, Theta: 0.1, Variable: "okubo_weiss"},
			Key{Time: 3600, Phi: math.Pi / 2, Theta: 0.1, Variable: "okubo_weiss"}},
	}
	for _, tc := range cases {
		i, ok := s.NearestIndex(tc.query)
		if !ok {
			t.Errorf("Nearest(%+v) missed", tc.query)
			continue
		}
		if got := s.EntryAt(i); got.Key != tc.want {
			t.Errorf("Nearest(%+v) = %+v, want %+v", tc.query, got.Key, tc.want)
		}
	}
	if _, ok := s.NearestIndex(Key{Time: 3600, Variable: "no_such_variable"}); ok {
		t.Error("Nearest resolved an unknown variable")
	}
}

func TestWriterRejectsBadInput(t *testing.T) {
	w, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Time: 1, Variable: "v"}
	if _, err := w.Put(k, nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := w.Put(Key{Time: math.NaN(), Variable: "v"}, []byte("x")); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := w.Put(Key{Time: 1}, []byte("x")); err == nil {
		t.Error("empty variable accepted")
	}
	if _, err := w.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Put(k, []byte("y")); err == nil {
		t.Error("duplicate key accepted")
	}
	if _, err := Create(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestFileNameCollisionsGetSequenced(t *testing.T) {
	w, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Sub-second times collapse under the %012.0f name format; the writer
	// must still keep the files distinct.
	e1, err := w.Put(Key{Time: 1.2, Variable: "v"}, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := w.Put(Key{Time: 1.4, Variable: "v"}, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.File == e2.File {
		t.Fatalf("colliding file names: %q", e1.File)
	}
}

// digestOf is the content address of a fabricated frame payload.
func digestOf(payload string) string { return provenance.Sum([]byte(payload)).Hex() }

// The store has one format: an index of any other type or version, or a
// current one with an entry that carries no content address, is refused
// with a typed error naming what it found.
func TestOpenRejectsLegacyIndexes(t *testing.T) {
	cases := map[string]struct {
		doc  string
		want any
	}{
		"v1": {`{"type": "simple-image-database", "version": "1.0", "images": [
			{"file": "a.png", "time": 3600, "field": "okubo_weiss", "bytes": 3}]}`, new(*FormatError)},
		"v2": {`{"type": "insituviz-cinema-store", "version": "2.0", "images": [
			{"file": "a.png", "time": 3600, "variable": "okubo_weiss", "bytes": 3}]}`, new(*FormatError)},
		"v3 without digests": {`{"type": "insituviz-cinema-store", "version": "3.0", "images": [
			{"file": "a.png", "time": 3600, "variable": "okubo_weiss", "bytes": 3}]}`, new(*EntryError)},
	}
	for name, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, IndexFile), []byte(c.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "a.png"), []byte("png"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.As(err, c.want) {
			t.Errorf("%s: Open error = %v, want %T", name, err, c.want)
		}
		var fe *FormatError
		if errors.As(err, &fe) && !strings.Contains(err.Error(), fmt.Sprintf("%q version %q", fe.Type, fe.Version)) {
			t.Errorf("%s: error %q does not name the type and version found", name, err)
		}
	}
}

func TestOpenRejectsBadIndexes(t *testing.T) {
	d := digestOf("png")
	cases := map[string]string{
		"unsupported version": `{"type": "insituviz-cinema-store", "version": "9.9", "images": []}`,
		"unsafe file path":    `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "../escape.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}]}`,
		"empty variable":      `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "bytes": 3, "sha256": "` + d + `"}]}`,
		"duplicate key":       `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}, {"file": "b.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}]}`,
		"duplicate file":      `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + d + `"}, {"file": "a.png", "time": 2, "variable": "v", "bytes": 3, "sha256": "` + d + `"}]}`,
		"upper-case digest":   `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "variable": "v", "bytes": 3, "sha256": "` + strings.ToUpper(d) + `"}]}`,
		"empty frame":         `{"type": "insituviz-cinema-store", "version": "3.0", "images": [{"file": "a.png", "time": 1, "variable": "v", "bytes": 0, "sha256": "` + d + `"}]}`,
		"torn json":           `{"type": "insituviz-cinema-store", "vers`,
	}
	for name, src := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, IndexFile), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("%s: opened without error", name)
		}
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("missing index opened without error")
	}
}

// Adopt holds a worker's entry to the same contract as an index entry: one
// without a content address is refused, even when its file is on disk at
// the stated size.
func TestAdoptRefusesEntryWithoutDigest(t *testing.T) {
	dir := t.TempDir()
	worker, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Time: 3600, Variable: "v"}
	e, err := worker.Put(k, frame(k, 32))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	bare := e
	bare.Digest = ""
	var ee *EntryError
	if err := sim.Adopt(bare); !errors.As(err, &ee) {
		t.Fatalf("Adopt of an entry without a digest: err = %v, want *EntryError", err)
	}
	if len(sim.Entries()) != 0 {
		t.Fatal("refused entry was recorded")
	}
	if err := sim.Adopt(e); err != nil {
		t.Fatalf("Adopt of the same entry with its digest: %v", err)
	}
}

// TestConcurrentCommitNeverTearsIndex is the crash-safety contract of the
// satellite task: a reader opening the database while the index is being
// rewritten sees either the previous committed index or the new one —
// never a partial document. The writer alternates between a 1-entry and a
// 2-entry index as fast as it can while readers re-open continuously.
func TestConcurrentCommitNeverTearsIndex(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := w.Put(Key{Time: 3600, Variable: "v"}, frame(Key{Time: 3600, Variable: "v"}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	one, err := EncodeIndex([]Entry{e1})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := w.Put(Key{Time: 7200, Variable: "v"}, frame(Key{Time: 7200, Variable: "v"}, 32))
	if err != nil {
		t.Fatal(err)
	}
	two, err := EncodeIndex([]Entry{e1, e2})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := one
			if i%2 == 1 {
				doc = two
			}
			if err := WriteFileAtomic(dir, IndexFile, doc); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 300; i++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("reader %d: mid-write open failed: %v", i, err)
		}
		if n := s.Len(); n != 1 && n != 2 {
			t.Fatalf("reader %d: observed torn index with %d entries", i, n)
		}
		if _, ok := s.LookupIndex(e1.Key); !ok {
			t.Fatalf("reader %d: committed entry missing", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteFileAtomicLeavesNoTempDebris checks both the happy path and
// that the database directory holds only final names afterwards.
func TestWriteFileAtomicLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if err := WriteFileAtomic(dir, "x.bin", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "x.bin"))
	if err != nil || len(got) != 1 || got[0] != 4 {
		t.Fatalf("final content = %v (%v)", got, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("temp debris left behind: %s", de.Name())
		}
	}
	if len(names) != 1 {
		t.Errorf("directory holds %d files, want 1", len(names))
	}
}

func TestEncodeIndexIsByteStable(t *testing.T) {
	entries := []Entry{
		{Key: Key{Time: 7200, Variable: "b"}, File: "2.png", Bytes: 2, Digest: digestOf("bb")},
		{Key: Key{Time: 3600, Variable: "a"}, File: "1.png", Bytes: 1, Digest: digestOf("a")},
	}
	a, err := EncodeIndex(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order must encode identically.
	b, err := EncodeIndex([]Entry{entries[1], entries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("index encoding depends on entry order")
	}
	back, err := DecodeIndex(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != 2 || back[0].Variable != "a" || back[1].Variable != "b" {
		t.Errorf("round-trip = %+v", back)
	}
}
