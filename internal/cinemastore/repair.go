package cinemastore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"insituviz/internal/provenance"
)

// Repair reports what RepairOpen did to bring a database back to a
// committed boundary.
type Repair struct {
	// RecoveredBackup is true when the live index was unreadable and the
	// last good index was restored from BackupFile — byte-identical to
	// the bytes Commit preserved.
	RecoveredBackup bool
	// Quarantined lists the files (sorted) moved into QuarantineDir
	// because the recovered index does not reference them: frames from
	// the torn commit, stray temp files, and other debris.
	Quarantined []string
	// CorruptQuarantined lists the files (sorted) moved into
	// QuarantineDir because their bytes no longer verify against the
	// index — a length or digest mismatch. The index is rewritten
	// without them.
	CorruptQuarantined []string
	// ManifestTruncatedBytes is the length of a torn provenance-manifest
	// tail that was truncated back to the last good record.
	ManifestTruncatedBytes int64
}

// RepairOpen opens a database that may have been left mid-commit or
// silently damaged — a torn index, stray temp files, frames written but
// never referenced by a committed index, bit-rotted or truncated frame
// files, a torn manifest append. It restores the last good index from
// BackupFile when the live one does not parse, moves every unreferenced
// regular file into QuarantineDir (nothing is deleted), verifies every
// referenced frame against its recorded length and content address —
// quarantining divergent frames and rewriting the index without them —
// truncates a torn provenance-manifest tail, and finishes with a strict
// Open over the repaired directory.
//
// A rewritten index is durable before the frames it drops are moved, so a
// crash anywhere in RepairOpen leaves a directory a second RepairOpen
// repairs to the same index, and once it returns a crash leaves nothing
// to repair.
//
// RepairOpen is for crashed, torn, or corrupt databases only. It must
// not run against a database a live writer is still appending to: frames
// put since the last Commit are unreferenced by definition and would be
// quarantined.
func RepairOpen(dir string) (*Store, *Repair, error) { return repairOpen(osOps{}, dir) }

// repairOpen is RepairOpen over the fs seam.
func repairOpen(fs fileOps, dir string) (*Store, *Repair, error) {
	rep := &Repair{}
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	var entries []Entry
	decodeErr := err
	if err == nil {
		entries, decodeErr = DecodeIndex(data)
	}
	if decodeErr != nil {
		// The live index is torn or missing: fall back to the last good
		// index Commit preserved, restoring its bytes verbatim so the
		// recovery round-trips byte-identically.
		backup, berr := os.ReadFile(filepath.Join(dir, BackupFile))
		if berr != nil {
			return nil, nil, fmt.Errorf("cinemastore: index unreadable (%v) and no backup: %w", decodeErr, berr)
		}
		if entries, err = DecodeIndex(backup); err != nil {
			return nil, nil, fmt.Errorf("cinemastore: backup index is also corrupt: %w", err)
		}
		if err := writeFileAtomic(fs, dir, IndexFile, backup); err != nil {
			return nil, nil, err
		}
		rep.RecoveredBackup = true
	}

	referenced := make(map[string]bool, len(entries)+3)
	referenced[IndexFile] = true
	referenced[BackupFile] = true
	referenced[provenance.ManifestFile] = true
	for _, e := range entries {
		referenced[e.File] = true
	}

	listing, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("cinemastore: list database dir: %w", err)
	}
	quarantine := func(name string) error {
		if err := os.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
			return fmt.Errorf("cinemastore: create quarantine dir: %w", err)
		}
		if err := fs.rename(filepath.Join(dir, name), filepath.Join(dir, QuarantineDir, name)); err != nil {
			return fmt.Errorf("cinemastore: quarantine %s: %w", name, err)
		}
		return nil
	}
	for _, de := range listing {
		if de.IsDir() || referenced[de.Name()] {
			continue
		}
		if err := quarantine(de.Name()); err != nil {
			return nil, nil, err
		}
		rep.Quarantined = append(rep.Quarantined, de.Name())
	}

	// Integrity pass: every referenced frame must still match its entry.
	// Divergent frames (bit-rot, truncation) are dropped from the index
	// and then quarantined — in that order, so no index a crash can leave
	// names a frame already moved away. A missing file is kept: dropping
	// it silently would mask real data loss.
	kept := entries[:0]
	for _, e := range entries {
		frame, err := os.ReadFile(filepath.Join(dir, e.File))
		if err == nil && e.VerifyFrame(frame) != nil {
			rep.CorruptQuarantined = append(rep.CorruptQuarantined, e.File)
			continue
		}
		kept = append(kept, e)
	}
	if len(rep.CorruptQuarantined) > 0 {
		idx, err := EncodeIndex(kept)
		if err != nil {
			return nil, nil, err
		}
		if err := writeFileAtomic(fs, dir, IndexFile, idx); err != nil {
			return nil, nil, err
		}
		for _, name := range rep.CorruptQuarantined {
			if err := quarantine(name); err != nil {
				return nil, nil, err
			}
		}
	}

	// A torn manifest tail (crash mid-append) is truncated back to the
	// last chained record; OpenLedger owns that recovery.
	if _, err := os.Stat(filepath.Join(dir, provenance.ManifestFile)); err == nil {
		ledger, lrep, err := provenance.OpenLedger(dir)
		if err != nil {
			return nil, nil, err
		}
		ledger.Close()
		if lrep != nil {
			rep.ManifestTruncatedBytes = lrep.TruncatedBytes
		}
	}

	// The restored or rewritten index is already durable; the quarantine
	// renames become durable here.
	if len(rep.Quarantined)+len(rep.CorruptQuarantined) > 0 {
		if err := fs.syncDir(dir); err != nil {
			return nil, nil, err
		}
	}
	sort.Strings(rep.Quarantined)
	sort.Strings(rep.CorruptQuarantined)

	st, err := Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("cinemastore: reopen after repair: %w", err)
	}
	return st, rep, nil
}
