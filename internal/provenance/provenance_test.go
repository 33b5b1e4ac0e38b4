package provenance

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insituviz/internal/faults"
)

func TestDigestHexRoundTrip(t *testing.T) {
	d := Sum([]byte("frame"))
	got, err := ParseHex(d.Hex())
	if err != nil || got != d {
		t.Fatalf("ParseHex(Hex()) = %v, %v, want %v", got, err, d)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("a", 63)} {
		if _, err := ParseHex(bad); err == nil {
			t.Errorf("ParseHex(%q): accepted", bad)
		}
	}
}

func leavesN(n int) []Digest {
	out := make([]Digest, n)
	for i := range out {
		out[i] = Sum([]byte{byte(i), byte(i >> 8)})
	}
	return out
}

func TestMerkleRootProperties(t *testing.T) {
	if MerkleRoot(nil) == (Digest{}) {
		t.Fatalf("empty root is zero")
	}
	if MerkleRoot(nil) != MerkleRoot([]Digest{}) {
		t.Fatalf("empty root not stable")
	}
	// A single leaf's root is not the leaf itself (domain separation).
	one := leavesN(1)
	if MerkleRoot(one) == one[0] {
		t.Errorf("single-leaf root equals the raw leaf")
	}
	// Any leaf change changes the root, at every size including odd ones.
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		base := MerkleRoot(leavesN(n))
		for i := 0; i < n; i++ {
			mut := leavesN(n)
			mut[i][0] ^= 1
			if MerkleRoot(mut) == base {
				t.Errorf("n=%d: flipping leaf %d left the root unchanged", n, i)
			}
		}
		// Order matters.
		if n > 1 {
			swapped := leavesN(n)
			swapped[0], swapped[n-1] = swapped[n-1], swapped[0]
			if MerkleRoot(swapped) == base {
				t.Errorf("n=%d: swapping leaves left the root unchanged", n)
			}
		}
	}
}

func TestRecordCanonicalLine(t *testing.T) {
	r := Record{Seq: 2, Prev: GenesisLink().Hex(), Root: Sum(nil).Hex(), Frames: 3, Bytes: 4096}
	line := r.appendLine(nil)
	want := `{"seq":2,"prev":"` + r.Prev + `","root":"` + r.Root + `","frames":3,"bytes":4096}` + "\n"
	if string(line) != want {
		t.Fatalf("canonical line =\n%s\nwant\n%s", line, want)
	}
}

func TestLedgerAppendSyncReopen(t *testing.T) {
	dir := t.TempDir()
	l, rep, err := OpenLedger(dir)
	if err != nil || rep != nil {
		t.Fatalf("OpenLedger: %v, %v", rep, err)
	}
	// Lazy creation: no file until a Sync with pending records.
	if err := l.Sync(); err != nil {
		t.Fatalf("empty Sync: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err == nil {
		t.Fatalf("manifest created by empty Sync")
	}

	l.Append(Sum([]byte("a")), 1, 10)
	l.Append(Sum([]byte("ab")), 2, 30)
	if l.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", l.Pending())
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Append(Sum([]byte("abc")), 3, 60)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync 2: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := ReadManifest(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Prev != GenesisLink().Hex() {
		t.Errorf("record 1 prev = %s, want genesis", recs[0].Prev)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
		if i > 0 && r.Prev != Sum(recs[i-1].appendLine(nil)).Hex() {
			t.Errorf("record %d chain link broken", i+1)
		}
	}
	if recs[2].Frames != 3 || recs[2].Bytes != 60 {
		t.Errorf("record 3 = %+v", recs[2])
	}

	// Reopen continues the chain.
	l2, rep, err := OpenLedger(dir)
	if err != nil || rep != nil {
		t.Fatalf("reopen: %v, %v", rep, err)
	}
	if head, ok := l2.Head(); !ok || head.Seq != 3 {
		t.Fatalf("reopened head = %+v, %v", head, ok)
	}
	l2.Append(Sum([]byte("abcd")), 4, 100)
	if err := l2.Sync(); err != nil {
		t.Fatalf("Sync after reopen: %v", err)
	}
	l2.Close()
	recs, err = ReadManifest(filepath.Join(dir, ManifestFile))
	if err != nil || len(recs) != 4 {
		t.Fatalf("after reopen: %d records, %v", len(recs), err)
	}
}

func TestLedgerByteStable(t *testing.T) {
	render := func() []byte {
		dir := t.TempDir()
		l, _, err := OpenLedger(dir)
		if err != nil {
			t.Fatalf("OpenLedger: %v", err)
		}
		for i := 1; i <= 5; i++ {
			l.Append(Sum([]byte{byte(i)}), i, int64(i)*100)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
		l.Close()
		b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatalf("read manifest: %v", err)
		}
		return b
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatalf("same appends render different manifests:\n%s\nvs\n%s", a, b)
	}
}

func TestLedgerTornAppendRecovery(t *testing.T) {
	dir := t.TempDir()
	plan := faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "manifest.torn", Kind: faults.KindTorn, At: []uint64{1}, Count: 1},
	}}
	inj, err := faults.New(plan)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	l, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatalf("OpenLedger: %v", err)
	}
	l.SetFaults(inj)
	l.Append(Sum([]byte("x")), 1, 1)
	err = l.Sync()
	var torn *TornManifestError
	if !errors.As(err, &torn) {
		t.Fatalf("first Sync err = %v, want TornManifestError", err)
	}
	if torn.Written <= 0 || torn.Written >= torn.Total {
		t.Fatalf("torn = %+v", torn)
	}
	if l.Pending() != 1 {
		t.Fatalf("pending dropped by torn append")
	}
	// The file now holds a corrupt prefix; a strict read names it.
	if _, err := ReadManifest(filepath.Join(dir, ManifestFile)); err == nil {
		t.Fatalf("torn manifest read as valid")
	}
	// Retry heals: truncate + rewrite.
	if err := l.Sync(); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
	l.Close()
	recs, err := ReadManifest(filepath.Join(dir, ManifestFile))
	if err != nil || len(recs) != 1 {
		t.Fatalf("after retry: %d records, %v", len(recs), err)
	}
}

func TestOpenLedgerTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLedger(dir)
	if err != nil {
		t.Fatalf("OpenLedger: %v", err)
	}
	l.Append(Sum([]byte("x")), 1, 1)
	l.Append(Sum([]byte("y")), 2, 2)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Close()
	path := filepath.Join(dir, ManifestFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Simulate a crash mid-append: a torn third record.
	if err := os.WriteFile(path, append(append([]byte{}, good...), []byte(`{"seq":3,"prev":"beef`)...), 0o644); err != nil {
		t.Fatalf("write torn: %v", err)
	}
	l2, rep, err := OpenLedger(dir)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if rep == nil || rep.TruncatedBytes != int64(len(`{"seq":3,"prev":"beef`)) {
		t.Fatalf("repair = %+v", rep)
	}
	if head, ok := l2.Head(); !ok || head.Seq != 2 {
		t.Fatalf("head after truncation = %+v, %v", head, ok)
	}
	l2.Close()
	if b, _ := os.ReadFile(path); !bytes.Equal(b, good) {
		t.Fatalf("torn tail not truncated")
	}
}

func TestDecodeManifestDivergences(t *testing.T) {
	r1 := Record{Seq: 1, Prev: GenesisLink().Hex(), Root: Sum(nil).Hex(), Frames: 1, Bytes: 1}
	line1 := string(r1.appendLine(nil))
	cases := []struct {
		name, data, reason string
		line               int
	}{
		{"torn", line1[:len(line1)-5], "torn record", 1},
		{"badjson", "not json\n", "unparseable", 1},
		{"badseq", strings.Replace(line1, `"seq":1`, `"seq":9`, 1), "sequence", 1},
		{"badprev", line1 + strings.Replace(line1, `"seq":1`, `"seq":2`, 1), "chain link diverges", 2},
		{"badroot", strings.Replace(line1, r1.Root, "zz", 1), "bad root", 1},
		{"noncanon", `{"prev":"` + r1.Prev + `","seq":1,"root":"` + r1.Root + `","frames":1,"bytes":1}` + "\n", "non-canonical", 1},
	}
	for _, tc := range cases {
		_, _, _, cerr := decodeManifest("m", []byte(tc.data))
		if cerr == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if cerr.Line != tc.line || !strings.Contains(cerr.Reason, tc.reason) {
			t.Errorf("%s: got line %d reason %q, want line %d ~%q", tc.name, cerr.Line, cerr.Reason, tc.line, tc.reason)
		}
	}
	if recs, _, _, cerr := decodeManifest("m", []byte(line1)); cerr != nil || len(recs) != 1 {
		t.Errorf("valid single record: %d recs, %v", len(recs), cerr)
	}
}

// chainLines renders n valid, chained manifest records.
func chainLines(n int) []byte {
	var out []byte
	prev := GenesisLink()
	for i := 1; i <= n; i++ {
		line := Record{Seq: uint64(i), Prev: prev.Hex(), Root: Sum([]byte{byte(i)}).Hex(), Frames: i, Bytes: int64(1000 * i)}.appendLine(nil)
		out = append(out, line...)
		prev = Sum(line)
	}
	return out
}

// FuzzDecodeManifest: for any bytes, decodeManifest either accepts the
// whole input or returns a *ChainError naming the line after the accepted
// prefix; either way the records it returns re-encode, chained from the
// genesis link, to exactly that prefix, and never number more than the
// input has lines.
func FuzzDecodeManifest(f *testing.F) {
	valid := chainLines(3)
	r1 := Record{Seq: 1, Prev: GenesisLink().Hex(), Root: Sum(nil).Hex(), Frames: 1, Bytes: 1}
	line1 := string(r1.appendLine(nil))
	for _, seed := range []string{
		"",
		string(valid),
		string(valid) + `{"seq":4,"prev":"beef`,
		string(valid[:len(valid)-7]),
		line1[:len(line1)-5],
		"not json\n",
		strings.Replace(line1, `"seq":1`, `"seq":9`, 1),
		line1 + strings.Replace(line1, `"seq":1`, `"seq":2`, 1),
		strings.Replace(line1, r1.Root, "zz", 1),
		`{"prev":"` + r1.Prev + `","seq":1,"root":"` + r1.Root + `","frames":1,"bytes":1}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, prev, good, cerr := decodeManifest("m", data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("prefix length %d outside [0, %d]", good, len(data))
		}
		if cerr == nil && good != int64(len(data)) {
			t.Fatalf("accepted %d of %d bytes without an error", good, len(data))
		}
		if cerr != nil && (good == int64(len(data)) || cerr.Line != len(recs)+1) {
			t.Fatalf("error %v after %d records and %d of %d bytes", cerr, len(recs), good, len(data))
		}
		if lines := bytes.Count(data, []byte{'\n'}); len(recs) > lines {
			t.Fatalf("%d records from %d lines", len(recs), lines)
		}
		var enc []byte
		link := GenesisLink()
		for i, r := range recs {
			if r.Seq != uint64(i+1) || r.Prev != link.Hex() {
				t.Fatalf("record %d: seq %d prev %s, want %d %s", i+1, r.Seq, r.Prev, i+1, link.Hex())
			}
			line := r.appendLine(nil)
			enc = append(enc, line...)
			link = Sum(line)
		}
		if !bytes.Equal(enc, data[:good]) {
			t.Fatalf("records re-encode to\n%q\nwant the accepted prefix\n%q", enc, data[:good])
		}
		if prev != link {
			t.Fatalf("returned link %s, want %s", prev.Hex(), link.Hex())
		}
	})
}
