package telemetry

import (
	"bufio"
	"bytes"
	"io"
)

// expositionKinds are the line kinds WriteText emits; ReprefixText only
// rewrites lines it can prove are metric lines.
var expositionKinds = [][]byte{
	[]byte("counter"),
	[]byte("gauge"),
	[]byte("fgauge"),
	[]byte("histogram"),
}

// ReprefixText copies a plain-text exposition (the WriteText format) from
// src to w with prefix inserted in front of every metric name — the
// remote half of Union: a cluster gateway scrapes each serving node's
// /metrics over HTTP and re-emits the documents under per-node prefixes
// ("node0.", "node1.", ...) next to its own registry, so one scrape of
// the gateway reads the whole fleet.
//
// Only lines of the form "kind name rest..." with a known kind are
// rewritten; anything else (blank lines included) is dropped rather than
// passed through, so a node answering with an error page cannot smuggle
// arbitrary lines into the composed exposition. Name ordering within the
// source document is preserved, so a sorted source stays sorted under its
// prefix and the composed document is byte-stable for byte-stable inputs.
func ReprefixText(w io.Writer, prefix string, src []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	bw := bufio.NewWriter(w)
	for sc.Scan() {
		// The scanner strips one CR before each LF; strip them all, so
		// no output line ends in a CR that a re-read would drop.
		line := bytes.TrimRight(sc.Bytes(), "\r")
		kind, rest, ok := bytes.Cut(line, []byte(" "))
		if !ok || !knownKind(kind) {
			continue
		}
		name, tail, ok := bytes.Cut(rest, []byte(" "))
		if !ok || len(name) == 0 {
			continue
		}
		bw.Write(kind)
		bw.WriteByte(' ')
		bw.WriteString(prefix)
		bw.Write(name)
		bw.WriteByte(' ')
		bw.Write(tail)
		bw.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

func knownKind(kind []byte) bool {
	for _, k := range expositionKinds {
		if bytes.Equal(kind, k) {
			return true
		}
	}
	return false
}
