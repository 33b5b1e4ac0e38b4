// Package provenance makes a committed Cinema store provable: every
// frame is content-addressed by its SHA-256 digest, every Commit appends
// a hash-chained manifest record whose Merkle root covers the digests of
// all live entries, and a verifier can name the first divergent frame or
// chain link of a store long after the run that produced it.
//
// The paper's in-situ pipeline exists to produce an image database that
// is consulted post-hoc — possibly years later, possibly from a replica
// three hops from the machine that rendered it. Ground truth for a
// served frame must therefore be stronger than "whatever bytes are on
// disk". The package follows the repo's observability contracts: the
// manifest log is byte-stable (no timestamps, canonical field order), so
// two same-seed runs produce byte-identical ledgers and CI can diff
// them; appends are batched and fsync'd through the same torn-write
// discipline the index commit uses; and fault injection ("manifest.torn")
// makes the recovery path deterministically testable.
//
// Layout. The ledger lives in the store directory as "manifest.log", one
// JSON record per line:
//
//	{"seq":1,"prev":"<hex>","root":"<hex>","frames":12,"bytes":49152}
//
// The chain link of a record is the SHA-256 of its rendered line bytes
// (newline included); "prev" carries the link of the predecessor, with a
// fixed domain-separated genesis link before the first record. The root
// is a Merkle root over the entry digests in the store's canonical sort
// order, with distinct leaf/node hash prefixes so a leaf can never be
// confused with an interior node.
package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Digest is a SHA-256 content address.
type Digest [sha256.Size]byte

// Sum digests a frame's bytes.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// Hex renders the digest as lowercase hex, the on-index form.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// ParseHex parses the on-index hex form of a digest.
func ParseHex(s string) (Digest, error) {
	var d Digest
	if len(s) != 2*sha256.Size {
		return d, fmt.Errorf("provenance: digest %q has length %d, want %d", s, len(s), 2*sha256.Size)
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, fmt.Errorf("provenance: bad digest %q: %w", s, err)
	}
	return d, nil
}

// Domain-separation prefixes. A Merkle leaf and an interior node hash
// different first bytes, so no sequence of frames can forge an interior
// node, and the genesis link can collide with no record link.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// genesisSeed is hashed once to produce the chain link before record 1.
const genesisSeed = "insituviz:provenance:genesis:v1"

// GenesisLink is the "prev" value of the first manifest record.
func GenesisLink() Digest { return sha256.Sum256([]byte(genesisSeed)) }

// emptySeed is hashed once to produce the Merkle root of zero leaves
// (a committed store with no entries).
const emptySeed = "insituviz:provenance:empty:v1"

// MerkleRoot computes the Merkle root over leaves in the given order.
// Leaves are hashed with a leaf prefix, pairs with a node prefix; an odd
// node at any level is carried up unchanged (Bitcoin-style duplication
// would let two different leaf sets share a root).
func MerkleRoot(leaves []Digest) Digest {
	if len(leaves) == 0 {
		return sha256.Sum256([]byte(emptySeed))
	}
	level := make([]Digest, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l)
	}
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

func hashLeaf(d Digest) Digest {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(d[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

func hashNode(l, r Digest) Digest {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

// Record is one manifest entry: the state of the store index as of one
// Commit. Records carry no wall-clock time — the ledger must be
// byte-stable across same-seed runs.
type Record struct {
	// Seq numbers records from 1.
	Seq uint64 `json:"seq"`
	// Prev is the hex chain link of the predecessor record (the genesis
	// link for Seq 1).
	Prev string `json:"prev"`
	// Root is the hex Merkle root over the index's entry digests in
	// canonical sort order.
	Root string `json:"root"`
	// Frames is the number of live entries at this commit.
	Frames int `json:"frames"`
	// Bytes is the total frame payload at this commit.
	Bytes int64 `json:"bytes"`
}

// appendLine renders the record in canonical form: fixed field order, no
// whitespace, one trailing newline. The chain link is the SHA-256 of
// exactly these bytes.
func (r Record) appendLine(dst []byte) []byte {
	dst = fmt.Appendf(dst, `{"seq":%d,"prev":"%s","root":"%s","frames":%d,"bytes":%d}`,
		r.Seq, r.Prev, r.Root, r.Frames, r.Bytes)
	return append(dst, '\n')
}

// ChainError names the first point where a manifest fails verification.
type ChainError struct {
	// Path is the manifest file.
	Path string
	// Line is the 1-based line of the offending record; 0 when the
	// manifest as a whole is unusable.
	Line int
	// Reason says what diverged.
	Reason string
}

func (e *ChainError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("provenance: %s: record %d: %s", e.Path, e.Line, e.Reason)
	}
	return fmt.Sprintf("provenance: %s: %s", e.Path, e.Reason)
}

// decodeManifest walks the raw manifest bytes and returns every record
// of the longest valid prefix, the chain link after that prefix, and the
// byte length of the prefix. A non-nil *ChainError describes the first
// divergence (a torn tail, a broken chain link, a bad sequence number);
// the returned prefix is still usable — that is what crash recovery
// truncates back to.
func decodeManifest(path string, data []byte) ([]Record, Digest, int64, *ChainError) {
	var (
		recs []Record
		prev = GenesisLink()
		good int64
		line int
	)
	for len(data) > 0 {
		line++
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: "torn record (no trailing newline)"}
		}
		raw := data[:nl+1]
		var r Record
		if err := json.Unmarshal(raw[:nl], &r); err != nil {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: fmt.Sprintf("unparseable record: %v", err)}
		}
		if r.Seq != uint64(line) {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: fmt.Sprintf("sequence %d, want %d", r.Seq, line)}
		}
		if r.Prev != prev.Hex() {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: fmt.Sprintf("chain link diverges: prev %s, want %s", r.Prev, prev.Hex())}
		}
		if _, err := ParseHex(r.Root); err != nil {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: fmt.Sprintf("bad root: %v", err)}
		}
		// Re-render and compare: a record that does not round-trip to its
		// own line bytes would hash to a different chain link on the next
		// read, so canonical form is part of the contract.
		if canon := r.appendLine(nil); !bytes.Equal(canon, raw) {
			return recs, prev, good, &ChainError{Path: path, Line: line, Reason: "non-canonical record encoding"}
		}
		prev = sha256.Sum256(raw)
		good += int64(len(raw))
		recs = append(recs, r)
		data = data[nl+1:]
	}
	return recs, prev, good, nil
}
