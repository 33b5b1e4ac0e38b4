// Command cinemaverify audits the end-to-end integrity of one or more
// Cinema stores: every frame on disk is re-read and checked against its
// indexed length and content digest, and the provenance manifest — the
// hash-chained, Merkle-rooted commit ledger written alongside the index
// — is replayed link by link and matched against the live index.
//
// The tool is the offline half of the integrity story: the serving
// stack detects and quarantines rot at read time (see cinemaserve's
// scrubber and the cluster gateway's replica repair); cinemaverify is
// what an operator runs against a store at rest — after a transfer,
// before an archive, or when a scrub counter starts moving — to get a
// yes/no answer and, on no, the name of the first divergent frame or
// chain link.
//
// Usage:
//
//	cinemaverify DIR [DIR...]
//
// Exit status is 0 when every store verifies, 1 on any divergence or
// read failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"insituviz/internal/cinemastore"
	"insituviz/internal/provenance"
	"insituviz/internal/workpool"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cinemaverify: ")

	maxReport := flag.Int("max-report", 10, "per-store cap on individually reported divergent frames")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: cinemaverify [-max-report N] DIR [DIR...]")
		os.Exit(2)
	}

	failed := false
	for _, dir := range flag.Args() {
		if !verifyStore(os.Stdout, dir, *maxReport) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// frameFault is one divergent or unreadable frame, kept in entry order
// so "first" means first in the canonical index order.
type frameFault struct {
	idx  int
	file string
	err  error
}

// verifyStore audits the store in dir, writes its report to out, and
// reports whether the store verifies.
func verifyStore(out io.Writer, dir string, maxReport int) bool {
	st, err := cinemastore.Open(dir)
	if err != nil {
		fmt.Fprintf(out, "FAIL %s: %v\n", dir, err)
		return false
	}

	entries := st.Entries()

	// Frame pass: parallel full re-read of every frame, verified against
	// the index. Faults are collected per entry so the report names the
	// first divergent frame in canonical order regardless of which worker
	// hit it.
	var (
		mu     sync.Mutex
		faults []frameFault
	)
	workpool.Run(len(entries), len(entries), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := entries[i]
			data, rerr := os.ReadFile(filepath.Join(dir, e.File))
			if rerr == nil {
				rerr = e.VerifyFrame(data)
			}
			if rerr != nil {
				mu.Lock()
				faults = append(faults, frameFault{idx: i, file: e.File, err: rerr})
				mu.Unlock()
			}
		}
	})
	sort.Slice(faults, func(i, j int) bool { return faults[i].idx < faults[j].idx })

	ok := true
	if len(faults) > 0 {
		ok = false
		fmt.Fprintf(out, "FAIL %s: %d of %d frames diverge; first is %s\n",
			dir, len(faults), len(entries), faults[0].file)
		for i, f := range faults {
			if i >= maxReport {
				fmt.Fprintf(out, "  ... and %d more\n", len(faults)-maxReport)
				break
			}
			fmt.Fprintf(out, "  frame %d (%s): %v\n", f.idx, f.file, f.err)
		}
	}

	// Manifest pass: replay the hash chain and match its head against
	// the live index. Every committed store has a manifest: Commit
	// appends the record pinning the index it writes.
	manifest := filepath.Join(dir, provenance.ManifestFile)
	recs, merr := provenance.ReadManifest(manifest)
	switch {
	case merr != nil && os.IsNotExist(merr):
		ok = false
		fmt.Fprintf(out, "FAIL %s: store has content digests but no %s manifest\n",
			dir, provenance.ManifestFile)
	case merr != nil:
		ok = false
		fmt.Fprintf(out, "FAIL %s: %v\n", dir, merr)
	case len(recs) == 0:
		ok = false
		fmt.Fprintf(out, "FAIL %s: manifest %s is empty\n", dir, manifest)
	default:
		head := recs[len(recs)-1]
		root := cinemastore.EntriesRoot(entries)
		switch {
		case head.Root != root.Hex():
			ok = false
			fmt.Fprintf(out, "FAIL %s: manifest head root %s != index root %s (record %d)\n",
				dir, short(head.Root), short(root.Hex()), head.Seq)
		case head.Frames != len(entries) || head.Bytes != st.TotalBytes():
			ok = false
			fmt.Fprintf(out, "FAIL %s: manifest head covers %d frames / %d bytes; index has %d / %d\n",
				dir, head.Frames, head.Bytes, len(entries), st.TotalBytes())
		}
	}

	if ok {
		fmt.Fprintf(out, "ok   %s: %d frames verified, %d manifest records, root %s\n",
			dir, len(entries), len(recs), short(recs[len(recs)-1].Root))
	}
	return ok
}

// short abbreviates a hex digest for display.
func short(hex string) string {
	if len(hex) > 12 {
		return hex[:12] + "…"
	}
	return hex
}
