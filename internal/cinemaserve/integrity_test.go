package cinemaserve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
)

// corruptFile flips one mid-file bit of a frame on disk, returning the
// original bytes so the test can "repair" it later.
func corruptFile(t *testing.T, path string) []byte {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x80
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	return orig
}

// A frame truncated on disk must never enter the cache: the length check,
// which runs before the digest, has to catch it. This is the regression
// test for the fill path verifying length-vs-index before paying for a
// hash.
func TestTruncatedFrameNeverCached(t *testing.T) {
	dir := t.TempDir()
	buildStoreIn(t, dir, 1, 2, nil, 128)
	st, err := cinemastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := st.EntryAt(0)

	// Truncate the frame mid-byte, as a crash mid-write (or a read racing
	// one) would leave it.
	path := filepath.Join(dir, e.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s, reg := newTestServer(t, Config{})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Frame("run", e.Key, false)
	var corrupt *CorruptFrameError
	if !errors.As(err, &corrupt) {
		t.Fatalf("truncated frame read: err = %v, want CorruptFrameError", err)
	}
	var integ *cinemastore.IntegrityError
	if !errors.As(err, &integ) || integ.Reason != "truncated" {
		t.Fatalf("cause = %v, want a truncation IntegrityError", corrupt.Cause)
	}
	if n := s.CacheLen(); n != 0 {
		t.Fatalf("truncated frame entered the cache (%d resident)", n)
	}
	if got := reg.Counter("corrupt").Value(); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
}

// A digest-divergent frame is quarantined, never served, never cached,
// and never strikes the breaker; once the bytes on disk are repaired the
// next read clears the quarantine without intervention.
func TestCorruptFrameQuarantinedThenHeals(t *testing.T) {
	dir := t.TempDir()
	st := buildStoreIn(t, dir, 1, 2, nil, 256)
	e := st.EntryAt(0)
	path := filepath.Join(dir, e.File)
	orig := corruptFile(t, path)

	s, reg := newTestServer(t, Config{BreakerThreshold: 3})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}

	// Hammer the rotten frame well past the breaker threshold: every read
	// must fail as corrupt, nothing may be cached, and the breaker must
	// stay closed — integrity failures are not availability failures.
	for i := 0; i < 6; i++ {
		_, _, err := s.Frame("run", e.Key, false)
		var corrupt *CorruptFrameError
		if !errors.As(err, &corrupt) || corrupt.File != e.File {
			t.Fatalf("read %d: err = %v, want CorruptFrameError for %s", i, err, e.File)
		}
	}
	if state := s.BreakerState("run"); state != BreakerClosed {
		t.Fatalf("breaker state = %d, want closed", state)
	}
	if n := s.CacheLen(); n != 0 {
		t.Fatalf("corrupt frame entered the cache (%d resident)", n)
	}
	if got := reg.Counter("corrupt").Value(); got != 6 {
		t.Fatalf("corrupt counter = %d, want 6", got)
	}
	if q := s.QuarantinedFiles("run"); len(q) != 1 || q[0] != e.File {
		t.Fatalf("quarantine = %v, want [%s]", q, e.File)
	}
	if got := reg.Gauge("quarantined").Value(); got != 1 {
		t.Fatalf("quarantined gauge = %d, want 1", got)
	}

	// Repair the replica on disk; the next read verifies clean, serves,
	// caches, and lifts the quarantine.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.Frame("run", e.Key, false)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("read after repair returned wrong bytes")
	}
	if q := s.QuarantinedFiles("run"); len(q) != 0 {
		t.Fatalf("quarantine not lifted: %v", q)
	}
	if got := reg.Gauge("quarantined").Value(); got != 0 {
		t.Fatalf("quarantined gauge = %d, want 0", got)
	}
	if n := s.CacheLen(); n != 1 {
		t.Fatalf("repaired frame not cached (%d resident)", n)
	}
}

// The background scrubber finds rot in frames nobody is requesting, and
// a later sweep over repaired bytes lifts the quarantine.
func TestScrubFindsRotAndHealsAfterRepair(t *testing.T) {
	dir := t.TempDir()
	st := buildStoreIn(t, dir, 1, 4, nil, 128)
	e := st.EntryAt(2)
	path := filepath.Join(dir, e.File)
	orig := corruptFile(t, path)

	// Cache disabled: every frame is "cold", so one sweep covers the
	// whole store.
	s, reg := newTestServer(t, Config{CacheBytes: -1})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}

	stats := s.ScrubOnce(0)
	if stats.Frames != st.Len() || stats.Quarantined != 1 || stats.Errors != 0 {
		t.Fatalf("scrub stats = %+v, want %d frames, 1 quarantined", stats, st.Len())
	}
	if q := s.QuarantinedFiles("run"); len(q) != 1 || q[0] != e.File {
		t.Fatalf("quarantine = %v, want [%s]", q, e.File)
	}
	if got := reg.Counter("scrub.quarantined").Value(); got != 1 {
		t.Fatalf("scrub.quarantined = %d, want 1", got)
	}
	if got := reg.Counter("corrupt").Value(); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}

	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	stats = s.ScrubOnce(0)
	if stats.Quarantined != 0 {
		t.Fatalf("scrub after repair quarantined %d", stats.Quarantined)
	}
	if q := s.QuarantinedFiles("run"); len(q) != 0 {
		t.Fatalf("quarantine not lifted: %v", q)
	}
	if got := reg.Gauge("quarantined").Value(); got != 0 {
		t.Fatalf("quarantined gauge = %d, want 0", got)
	}
	if got := reg.Counter("scrub.sweeps").Value(); got != 2 {
		t.Fatalf("scrub.sweeps = %d, want 2", got)
	}
}

// storageChaosRun is one full deterministic integrity scenario under the
// storage chaos profile: serve every frame once in canonical order, run
// one scrub sweep, and drive a writer commit through the injected torn
// manifest append. It returns the byte-stable fault log and the
// integrity counters.
func storageChaosRun(t *testing.T, seed uint64) (faultLog string, corrupt, scrubQuar, commitRetries int64) {
	t.Helper()
	plan, err := faults.Profile("storage", seed)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(plan)
	if err != nil {
		t.Fatal(err)
	}

	st := buildStore(t, 1, 8, nil, 64)
	st.SetFaults(inj)
	s, reg := newTestServer(t, Config{CacheBytes: -1})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.Len(); i++ {
		if _, _, err := s.Frame("run", st.EntryAt(i).Key, false); err != nil {
			var cfe *CorruptFrameError
			if !errors.As(err, &cfe) {
				t.Fatalf("frame %d: unexpected error kind: %v", i, err)
			}
		}
	}
	s.ScrubOnce(0)

	// One writer commit through the injected manifest tear: the first
	// Sync tears, the retry truncates the torn tail and lands the record.
	w, err := cinemastore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaults(inj)
	if _, err := w.Put(cinemastore.Key{Variable: "v"}, []byte("frame")); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		_, err := w.Commit()
		if err == nil {
			break
		}
		if attempt >= 4 {
			t.Fatalf("commit never recovered: %v", err)
		}
		commitRetries++
	}
	if err := w.CloseLedger(); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	if err := inj.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	return log.String(), reg.Counter("corrupt").Value(),
		reg.Counter("scrub.quarantined").Value(), commitRetries
}

// Two runs of the same seed=7 storage-profile scenario must produce
// byte-identical fault logs and identical integrity counters — the
// determinism the chaos CI jobs pin, extended to the new corruption
// sites. The parallel scrub may assign a given injected fault to a
// different frame each run, but the log (sorted by site and occurrence)
// and the counts are interleaving-free.
func TestStorageChaosIntegrityDeterministic(t *testing.T) {
	log1, corrupt1, scrub1, retries1 := storageChaosRun(t, 7)
	log2, corrupt2, scrub2, retries2 := storageChaosRun(t, 7)

	if log1 != log2 {
		t.Fatalf("fault logs diverge:\n--- run 1\n%s--- run 2\n%s", log1, log2)
	}
	if corrupt1 != corrupt2 || scrub1 != scrub2 || retries1 != retries2 {
		t.Fatalf("counters diverge: corrupt %d/%d, scrub.quarantined %d/%d, retries %d/%d",
			corrupt1, corrupt2, scrub1, scrub2, retries1, retries2)
	}
	// The scenario must actually exercise the new sites: the profile
	// schedules a bit-flip at read 3, a truncation at read 5, and a torn
	// manifest append at the first ledger sync.
	if corrupt1 < 2 {
		t.Fatalf("corrupt counter = %d, want >= 2 (scheduled bitrot + truncation)", corrupt1)
	}
	if retries1 != 1 {
		t.Fatalf("commit retries = %d, want 1 (scheduled manifest tear)", retries1)
	}
	for _, want := range []string{"fault store.bitrot #3 corrupt", "fault store.truncate #5 corrupt", "fault manifest.torn #1 torn"} {
		if !bytes.Contains([]byte(log1), []byte(want)) {
			t.Fatalf("fault log missing %q:\n%s", want, log1)
		}
	}
}
