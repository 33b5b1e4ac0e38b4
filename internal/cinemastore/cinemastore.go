// Package cinemastore is the durable on-disk format of the Cinema image
// databases the in-situ pipeline emits, and the read path over them: a
// content-addressed JSON index of (time, camera-phi/theta, variable) axes
// plus a directory of PNG frames, a writer, an opener, an axis-based query
// engine (exact and nearest-parameter lookup), and an iterator for
// full-database scans.
//
// The paper's in-situ workflow exists precisely to produce these
// databases: render many small views in situ, then let scientists browse
// the image store interactively instead of re-rendering from raw dumps
// (Ahrens et al., "An Image-based Approach to Extreme Scale In Situ
// Visualization and Analysis"). This package owns the one contract the
// write path (Writer, fed by render.PipelinedCinemaWriter) and the query
// server (internal/cinemaserve) share: every frame is immutable and named
// by the SHA-256 of its bytes.
//
// Durability contract: every index and frame write goes to a temp file in
// the destination directory and is renamed into place, so a reader
// opening the database at any moment — including mid-write — observes
// either the old or the new index, never a torn one. Frames become
// durable at the Writer's Commit, which fsyncs every frame written since
// the previous Commit and the directory before it writes (and fsyncs) the
// index that names them; a crash recovers, through RepairOpen, to a
// committed index whose every frame verifies.
package cinemastore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"insituviz/internal/faults"
	"insituviz/internal/provenance"
	"insituviz/internal/telemetry"
)

// Format identifiers. There is one index format: every entry carries the
// full axis tuple and content-addresses its frame with a SHA-256 digest
// ("sha256"), and the index is paired with a hash-chained provenance
// manifest. An index of any other type or version, or with an entry
// lacking a valid digest, does not decode.
const (
	IndexFile = "info.json"

	// BackupFile preserves the last successfully committed, parseable
	// index. Commit refreshes it before overwriting IndexFile, so a torn
	// index commit can be repaired back to the previous good boundary by
	// RepairOpen.
	BackupFile = "info.json.bak"

	// QuarantineDir is where RepairOpen moves files the recovered index
	// does not reference — or whose bytes no longer match their recorded
	// digest — instead of deleting them.
	QuarantineDir = "quarantine"

	IndexType    = "insituviz-cinema-store"
	IndexVersion = "3.0"
)

// Key identifies one frame by its position on the database axes: the
// simulated time, the camera direction (phi = azimuth and theta =
// elevation, radians — zero for view-independent frames such as
// equirectangular maps), and the rendered variable.
type Key struct {
	Time     float64 `json:"time"`
	Phi      float64 `json:"phi"`
	Theta    float64 `json:"theta"`
	Variable string  `json:"variable"`
}

// AppendCanonical appends the key's canonical byte representation to
// dst: the variable followed by the three axis values in shortest
// round-trip float formatting, '|'-separated. Two keys render identically
// exactly when they are equal, and the rendering never changes across
// runs or architectures — the property the cluster's consistent-hash
// routing (which must place a key on the same node from any gateway)
// depends on.
func (k Key) AppendCanonical(dst []byte) []byte {
	dst = append(dst, k.Variable...)
	for _, v := range [...]float64{k.Time, k.Phi, k.Theta} {
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return dst
}

// Validate rejects keys that cannot live on the axes: non-finite
// coordinates (NaN would also poison map lookups) and empty variables.
func (k Key) Validate() error {
	for _, v := range [...]float64{k.Time, k.Phi, k.Theta} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cinemastore: non-finite axis value in %+v", k)
		}
	}
	if k.Variable == "" {
		return fmt.Errorf("cinemastore: empty variable")
	}
	return nil
}

// Entry is one frame record: its key plus the stored file (a bare name,
// always directly inside the database directory), its size, and the hex
// SHA-256 content address of its bytes.
type Entry struct {
	Key
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	// Digest is the lowercase-hex SHA-256 of the frame bytes.
	Digest string `json:"sha256"`
}

// EntryError reports an entry — read from an index or handed to Adopt —
// that no Writer could have recorded: a key off the axes, an unsafe file
// name, a non-positive size, a missing or malformed content address, or a
// key another entry of the same index already holds.
type EntryError struct {
	File string // the entry's file name, as given
	Err  error
}

func (e *EntryError) Error() string { return fmt.Sprintf("cinemastore: entry %q: %v", e.File, e.Err) }
func (e *EntryError) Unwrap() error { return e.Err }

// validate checks everything about an entry that does not need its bytes:
// a key on the axes, a bare file name inside the database directory, a
// positive size, and a content address in the lowercase hex Put records.
func (e Entry) validate() error {
	var err error
	switch {
	case e.File == "" || filepath.Base(e.File) != e.File || e.File == "." || e.File == "..":
		err = errors.New("unsafe file name")
	case e.Bytes < 1:
		err = fmt.Errorf("size %d", e.Bytes)
	case !isDigest(e.Digest):
		err = fmt.Errorf("sha256 %q is not a lowercase hex SHA-256", e.Digest)
	default:
		err = e.Key.Validate()
	}
	if err != nil {
		return &EntryError{File: e.File, Err: err}
	}
	return nil
}

// isDigest reports whether s is a SHA-256 in lowercase hex, the only
// spelling VerifyFrame's comparison matches.
func isDigest(s string) bool {
	d, err := provenance.ParseHex(s)
	return err == nil && d.Hex() == s
}

// jsonEntry is the on-disk entry layout.
type jsonEntry struct {
	File     string  `json:"file"`
	Time     float64 `json:"time"`
	Phi      float64 `json:"phi,omitempty"`
	Theta    float64 `json:"theta,omitempty"`
	Variable string  `json:"variable,omitempty"`
	Bytes    int64   `json:"bytes"`
	Sha256   string  `json:"sha256"`
}

// jsonIndex is the on-disk index layout.
type jsonIndex struct {
	Type    string      `json:"type"`
	Version string      `json:"version"`
	Images  []jsonEntry `json:"images"`
}

// IntegrityError reports frame bytes that diverge from their index
// entry: a length mismatch (truncation, the cheap check that runs first)
// or a digest mismatch (bit-rot). It names the file so a verifier or an
// operator can point at the exact divergent frame.
type IntegrityError struct {
	// File is the divergent frame's bare file name.
	File string
	// Reason is "truncated" or "digest mismatch".
	Reason string
	// WantBytes/GotBytes are set for length mismatches.
	WantBytes, GotBytes int64
	// WantDigest/GotDigest are set (hex) for digest mismatches.
	WantDigest, GotDigest string
}

func (e *IntegrityError) Error() string {
	if e.Reason == "truncated" {
		return fmt.Sprintf("cinemastore: %s: truncated (%d bytes on read, index says %d)", e.File, e.GotBytes, e.WantBytes)
	}
	return fmt.Sprintf("cinemastore: %s: digest mismatch (got %s, index says %s)", e.File, e.GotDigest, e.WantDigest)
}

// VerifyFrame checks read frame bytes against the entry: length first
// (catches truncation before paying for a hash), then the SHA-256
// content address. A nil return means the bytes are exactly what was
// committed.
func (e Entry) VerifyFrame(data []byte) error {
	if int64(len(data)) != e.Bytes {
		return &IntegrityError{File: e.File, Reason: "truncated", WantBytes: e.Bytes, GotBytes: int64(len(data))}
	}
	if got := provenance.Sum(data).Hex(); got != e.Digest {
		return &IntegrityError{File: e.File, Reason: "digest mismatch", WantDigest: e.Digest, GotDigest: got}
	}
	return nil
}

// EntriesRoot computes the Merkle root over the entries' content
// addresses in canonical sort order — the root a manifest record pins.
// Every entry a Writer or DecodeIndex hands out carries a valid digest.
func EntriesRoot(entries []Entry) provenance.Digest {
	sorted := append([]Entry(nil), entries...)
	sortEntries(sorted)
	leaves := make([]provenance.Digest, len(sorted))
	for i, e := range sorted {
		leaves[i], _ = provenance.ParseHex(e.Digest)
	}
	return provenance.MerkleRoot(leaves)
}

// sortEntries orders entries canonically: variable, then time, then phi,
// then theta. Both the writer and the opener sort, so the index bytes and
// every scan order are deterministic.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Variable != b.Variable {
			return a.Variable < b.Variable
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Phi != b.Phi {
			return a.Phi < b.Phi
		}
		return a.Theta < b.Theta
	})
}

// WriteFileAtomic writes data as name inside dir so that a concurrent
// reader of dir/name sees either the previous content or the new content,
// never a prefix, and so that the new content survives a crash once it
// returns: the bytes land in an fsynced temp file in the same directory
// (same filesystem, so the rename is atomic), the temp file is renamed
// over the destination, and the directory is fsynced so the rename itself
// is durable.
func WriteFileAtomic(dir, name string, data []byte) error {
	return writeFileAtomic(osOps{}, dir, name, data)
}

// writeFileAtomic is WriteFileAtomic over the fs seam.
func writeFileAtomic(fs fileOps, dir, name string, data []byte) error {
	if err := writeFile(fs, dir, name, data, true); err != nil {
		return err
	}
	return fs.syncDir(dir)
}

// writeFile writes data to a temp file in dir and renames it over name.
// With sync set the temp file is fsynced before the rename, so the name
// never points at unsynced bytes; without it the caller owns the file's
// durability (Commit's sync pass). Either way the rename becomes durable
// at the caller's next directory fsync.
func writeFile(fs fileOps, dir, name string, data []byte, sync bool) (err error) {
	f, err := fs.createTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("cinemastore: create temp for %s: %w", name, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("cinemastore: write %s: %w", name, err)
	}
	if sync {
		if err = f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("cinemastore: fsync %s: %w", name, err)
		}
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("cinemastore: close %s: %w", name, err)
	}
	if err = fs.rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("cinemastore: rename %s: %w", name, err)
	}
	return nil
}

// fileOps is the store's file-system seam: the operations of the writer
// and of RepairOpen whose order decides what a crash leaves behind. osOps
// passes straight to the os package; the crash-point test records the
// calls and replays every post-crash state they allow.
type fileOps interface {
	createTemp(dir, pattern string) (tempFile, error)
	rename(oldpath, newpath string) error
	syncFile(path string) error // open, fsync, close
	syncDir(dir string) error
}

// tempFile is the part of *os.File a temp file is written through.
type tempFile interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type osOps struct{}

func (osOps) createTemp(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osOps) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osOps) syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cinemastore: open %s for fsync: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("cinemastore: fsync %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func (osOps) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cinemastore: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cinemastore: fsync dir %s: %w", dir, err)
	}
	return nil
}

// syncWidth is how many fsyncs Commit's sync pass has in flight at once.
// Each blocked fsync pins an OS thread, so the pass is a fixed set of
// goroutines claiming names in order, never one goroutine per file.
const syncWidth = 8

// syncFiles fsyncs every named file in dir, syncWidth at a time, and
// returns the error of the lowest-indexed name that failed.
func syncFiles(fs fileOps, dir string, names []string) error {
	errs := make([]error, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(syncWidth, len(names)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(names); i = int(next.Add(1)) - 1 {
				errs[i] = fs.syncFile(filepath.Join(dir, names[i]))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Writer accumulates frames for one database and commits a versioned
// index over them. Frames are written (atomically) as they are put; the
// index becomes visible to readers only on Commit, which is itself
// atomic, so a database is always observed at a committed boundary.
// Commit is also where the frames become durable: it fsyncs every frame
// put or adopted since the previous Commit before the index that names
// them. Not safe for concurrent use.
type Writer struct {
	dir     string
	fs      fileOps
	entries []Entry
	byKey   map[Key]int
	files   map[string]bool
	total   int64
	ledger  *provenance.Ledger
	// pending names the frame files put or adopted since the last Commit
	// whose bytes no fsync has covered yet: Commit's sync pass owns them.
	pending []string
	// lastRoot is the root of the most recently appended manifest record
	// (durable or still pending); it dedups pure Commit retries after a
	// torn manifest append.
	lastRoot string

	// Fault injection (nil without SetFaults; a nil site never fires).
	inj        *faults.Injector
	commitSite *faults.Site

	// Metric handles (nil without SetTelemetry; nil handles are no-ops).
	mSynced     *telemetry.Counter
	mFrames     *telemetry.Counter
	mBytes      *telemetry.Counter
	mFrameBytes *telemetry.Histogram
}

// frameSizeBuckets are the upper bounds (bytes) of the render.frame.bytes
// histogram: the paper's Cinema images are a few KB to a few hundred KB,
// so the buckets are decade-ish steps across that range.
var frameSizeBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// SetTelemetry registers the writer's metrics in reg: cinema.commit.synced
// (the frame files Commit's sync pass has fsynced), and render.frames,
// render.encoded.bytes and the render.frame.bytes size histogram, which
// count every frame Put or Adopt records. A nil registry detaches them.
func (w *Writer) SetTelemetry(reg *telemetry.Registry) {
	w.mSynced = reg.Counter("cinema.commit.synced")
	w.mFrames = reg.Counter("render.frames")
	w.mBytes = reg.Counter("render.encoded.bytes")
	w.mFrameBytes = reg.Histogram("render.frame.bytes", frameSizeBuckets)
}

// SetFaults arms the writer's "cinema.commit" fault site — an injected
// torn fault makes the next Commit leave a corrupt index prefix on disk,
// the crash mode RepairOpen recovers — and the ledger's "manifest.torn"
// site, which tears the manifest append the same way.
func (w *Writer) SetFaults(in *faults.Injector) {
	w.inj = in
	w.commitSite = in.Site("cinema.commit")
	if w.ledger != nil {
		w.ledger.SetFaults(in)
	}
}

// TornCommitError reports a Commit that tore mid-write, leaving a
// corrupt index on disk. The database is recoverable: retry Commit, or
// reopen through RepairOpen to fall back to the last good index.
type TornCommitError struct {
	Dir     string
	Written int // corrupt prefix length left in IndexFile
	Total   int // full index length that should have been written
}

func (e *TornCommitError) Error() string {
	return fmt.Sprintf("cinemastore: torn index commit in %s (%d of %d bytes)", e.Dir, e.Written, e.Total)
}

// Create creates (or reuses) the database directory and returns a writer
// over it.
func Create(dir string) (*Writer, error) {
	if dir == "" {
		return nil, fmt.Errorf("cinemastore: empty database directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cinemastore: create database dir: %w", err)
	}
	// The provenance ledger continues any existing manifest chain in the
	// directory (truncating a torn tail from a crashed append). The file
	// itself is created lazily on the first Commit, so a writer that
	// never commits leaves no ledger behind.
	ledger, _, err := provenance.OpenLedger(dir)
	if err != nil {
		return nil, err
	}
	return &Writer{dir: dir, fs: osOps{}, byKey: map[Key]int{}, files: map[string]bool{}, ledger: ledger}, nil
}

// fileName derives a readable, collision-free frame file name from a key.
func (w *Writer) fileName(k Key) string {
	v := sanitize(k.Variable)
	var base string
	if k.Phi == 0 && k.Theta == 0 {
		base = fmt.Sprintf("t%012.0f_%s", k.Time, v)
	} else {
		// Milliradian camera coordinates keep the name integral and unique
		// across the default rigs.
		base = fmt.Sprintf("t%012.0f_p%+05.0f_h%+05.0f_%s", k.Time, k.Phi*1000, k.Theta*1000, v)
	}
	name := base + ".png"
	for seq := 2; w.files[name]; seq++ {
		name = fmt.Sprintf("%s_%d.png", base, seq)
	}
	return name
}

// sanitize maps a variable name onto the filename-safe alphabet.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '-'
	}, s)
}

// Put stores one encoded frame under key, writing the file atomically,
// and returns the recorded entry. Duplicate keys are rejected: the axes
// must address frames uniquely for the query engine to be meaningful.
//
// The frame is not fsynced here: the next Commit syncs it before the
// index that names it, which is the only point a reader or a crash
// recovery can rely on it. The one exception is a name that already
// exists on disk — a rerun into a committed store — where the bytes are
// fsynced before the rename, so a committed frame is never replaced by
// unsynced bytes.
func (w *Writer) Put(key Key, data []byte) (Entry, error) {
	if err := key.Validate(); err != nil {
		return Entry{}, err
	}
	if len(data) == 0 {
		return Entry{}, fmt.Errorf("cinemastore: empty frame for %+v", key)
	}
	if i, ok := w.byKey[key]; ok {
		return Entry{}, fmt.Errorf("cinemastore: duplicate key %+v (already stored as %s)", key, w.entries[i].File)
	}
	name := w.fileName(key)
	_, statErr := os.Lstat(filepath.Join(w.dir, name))
	replaces := statErr == nil
	if err := writeFile(w.fs, w.dir, name, data, replaces); err != nil {
		return Entry{}, err
	}
	if !replaces {
		w.pending = append(w.pending, name)
	}
	e := Entry{Key: key, File: name, Bytes: int64(len(data)), Digest: provenance.Sum(data).Hex()}
	w.record(e)
	return e, nil
}

// record folds a written or adopted entry into the index and counts it.
func (w *Writer) record(e Entry) {
	w.byKey[e.Key] = len(w.entries)
	w.entries = append(w.entries, e)
	w.files[e.File] = true
	w.total += e.Bytes
	w.mFrames.Inc()
	w.mBytes.Add(e.Bytes)
	w.mFrameBytes.Observe(float64(e.Bytes))
}

// Adopt records an entry whose frame file was written into the database
// directory by another process — the in-transit viz workers share the
// sim's store directory and report back the entries they stored. The
// adopting writer validates the entry — an entry without a valid content
// address is refused — re-hashes the file on disk against it, and folds it
// into its index exactly as if Put had written it, so Commit publishes one
// index over both origins and the sim never vouches for bytes it has not
// verified. The writing process need not have fsynced the file: Commit
// syncs adopted files by name along with its own.
func (w *Writer) Adopt(e Entry) error {
	if err := e.validate(); err != nil {
		return fmt.Errorf("cinemastore: adopt: %w", err)
	}
	if i, ok := w.byKey[e.Key]; ok {
		return fmt.Errorf("cinemastore: duplicate key %+v (already stored as %s)", e.Key, w.entries[i].File)
	}
	data, err := os.ReadFile(filepath.Join(w.dir, e.File))
	if err != nil {
		return fmt.Errorf("cinemastore: adopt %s: %w", e.File, err)
	}
	if err := e.VerifyFrame(data); err != nil {
		return fmt.Errorf("cinemastore: adopt: %w", err)
	}
	w.record(e)
	w.pending = append(w.pending, e.File)
	return nil
}

// Entries returns the accumulated entries in canonical order.
func (w *Writer) Entries() []Entry {
	out := append([]Entry(nil), w.entries...)
	sortEntries(out)
	return out
}

// Commit writes the version-3 index atomically, appends a hash-chained
// manifest record pinning the Merkle root of the committed entries, and
// returns the index's encoded size. Commit may be called repeatedly;
// each call publishes the entries accumulated so far, and concurrent
// readers observe one committed index or the previous one, never a
// mixture.
//
// Commit is the frames' durability boundary. It first fsyncs every frame
// put or adopted since the previous Commit (syncWidth at a time), then
// the directory, so every frame the new index names is on disk, bytes and
// name, before the index can be: a crash at any point leaves the previous
// committed index or this one, and every frame either names verifies.
//
// The index lands before the manifest record, so a Commit torn at either
// step leaves the manifest head no further than the on-disk index. A
// *TornManifestError means the index committed but its record did not;
// retrying Commit truncates the torn tail and completes the chain.
func (w *Writer) Commit() (int64, error) {
	entries := w.Entries()
	data, err := EncodeIndex(entries)
	if err != nil {
		return 0, err
	}
	if err := syncFiles(w.fs, w.dir, w.pending); err != nil {
		return 0, err
	}
	w.mSynced.Add(int64(len(w.pending)))
	w.pending = w.pending[:0]
	if err := w.fs.syncDir(w.dir); err != nil {
		return 0, err
	}
	// Preserve the previous committed index (if parseable) as the repair
	// fallback before the new one replaces it. The backup rename is made
	// durable by the same directory fsync that publishes the new index.
	if prev, err := os.ReadFile(filepath.Join(w.dir, IndexFile)); err == nil {
		if _, err := DecodeIndex(prev); err == nil {
			if err := writeFile(w.fs, w.dir, BackupFile, prev, true); err != nil {
				return 0, err
			}
		}
	}
	if f, ok := w.commitSite.Next(); ok && f.Kind == faults.KindTorn {
		// Model the crash mid-write: a non-atomic partial overwrite of
		// the index, torn at a deterministic, seed-derived offset.
		tear := 1 + int(w.inj.Uniform("cinema.tear", f.Seq)*float64(len(data)-1))
		if err := os.WriteFile(filepath.Join(w.dir, IndexFile), data[:tear], 0o644); err != nil {
			return 0, fmt.Errorf("cinemastore: tearing index: %w", err)
		}
		return 0, &TornCommitError{Dir: w.dir, Written: tear, Total: len(data)}
	}
	if err := writeFile(w.fs, w.dir, IndexFile, data, true); err != nil {
		return 0, err
	}
	if err := w.fs.syncDir(w.dir); err != nil {
		return 0, err
	}
	// Pin the committed state in the provenance chain. A retried Commit
	// (after a torn manifest append) must not double-record the same
	// state: the pending record from the failed attempt is reused.
	root := EntriesRoot(entries)
	if w.ledger.Pending() == 0 || root.Hex() != w.lastRoot {
		w.ledger.Append(root, len(entries), w.total)
		w.lastRoot = root.Hex()
	}
	if err := w.ledger.Sync(); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// CloseLedger releases the writer's manifest file handle. Call when the
// writer is done committing; further Commits reopen nothing and fail.
func (w *Writer) CloseLedger() error { return w.ledger.Close() }

// EncodeIndex renders entries as an index document. The entries
// are sorted canonically first, so equal databases encode byte-identically.
func EncodeIndex(entries []Entry) ([]byte, error) {
	sorted := append([]Entry(nil), entries...)
	sortEntries(sorted)
	idx := jsonIndex{Type: IndexType, Version: IndexVersion, Images: make([]jsonEntry, len(sorted))}
	for i, e := range sorted {
		idx.Images[i] = jsonEntry{
			File: e.File, Time: e.Time, Phi: e.Phi, Theta: e.Theta,
			Variable: e.Variable, Bytes: e.Bytes, Sha256: e.Digest,
		}
	}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cinemastore: marshal index: %w", err)
	}
	return append(data, '\n'), nil
}

// FormatError reports an index document of a type or version other than
// IndexType and IndexVersion.
type FormatError struct {
	Type, Version string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("cinemastore: unsupported index type %q version %q (want %q %q)", e.Type, e.Version, IndexType, IndexVersion)
}

// DecodeIndex parses an index document into entries (canonical order).
// The document must be of IndexType and IndexVersion (else a
// *FormatError), and every entry must be one a Writer could have
// recorded (else an *EntryError).
func DecodeIndex(data []byte) ([]Entry, error) {
	var idx jsonIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("cinemastore: parse index: %w", err)
	}
	if idx.Type != IndexType || idx.Version != IndexVersion {
		return nil, &FormatError{Type: idx.Type, Version: idx.Version}
	}
	entries := make([]Entry, len(idx.Images))
	for i, je := range idx.Images {
		e := Entry{
			Key:  Key{Time: je.Time, Phi: je.Phi, Theta: je.Theta, Variable: je.Variable},
			File: je.File, Bytes: je.Bytes, Digest: je.Sha256,
		}
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("cinemastore: index entry %d: %w", i, err)
		}
		entries[i] = e
	}
	sortEntries(entries)
	// Equal keys sort next to each other.
	for i := 1; i < len(entries); i++ {
		if entries[i].Key == entries[i-1].Key {
			return nil, &EntryError{File: entries[i].File, Err: fmt.Errorf("duplicate key %+v (also %s)", entries[i].Key, entries[i-1].File)}
		}
	}
	return entries, nil
}
