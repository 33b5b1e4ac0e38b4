package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// The reprefix tests' input documents, which also seed FuzzReprefixText.
var (
	// metricDoc holds a line of every exposition kind.
	metricDoc = strings.Join([]string{
		"counter serve.requests 42",
		"gauge serve.slots 4",
		"fgauge transit.compression.ratio 0.25",
		"histogram serve.latency.ns count 3 sum 12345",
		"histogram serve.latency.ns le 1000 1",
		"histogram serve.latency.ns p99 950",
	}, "\n") + "\n"
	// foreignDoc is mostly not metric lines: an error page, a blank line,
	// an unknown kind, lines with no name or no value, and the span kind
	// that no exposition emits any more.
	foreignDoc = "<html>not metrics</html>\n\ncounter ok 1\ngarbage\nbogus kind 2\ncounter\n" +
		"span step.time entries 2 sampled 1 sampled_ns 10 estimated_ns 20\n"
)

func TestReprefixTextRewritesMetricLines(t *testing.T) {
	var out strings.Builder
	if err := ReprefixText(&out, "node0.", []byte(metricDoc)); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"counter node0.serve.requests 42",
		"gauge node0.serve.slots 4",
		"fgauge node0.transit.compression.ratio 0.25",
		"histogram node0.serve.latency.ns count 3 sum 12345",
		"histogram node0.serve.latency.ns le 1000 1",
		"histogram node0.serve.latency.ns p99 950",
	}, "\n") + "\n"
	if out.String() != want {
		t.Errorf("reprefixed exposition:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestReprefixTextDropsForeignLines(t *testing.T) {
	var out strings.Builder
	if err := ReprefixText(&out, "n.", []byte(foreignDoc)); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "counter n.ok 1\n"; got != want {
		t.Errorf("filtered exposition = %q, want %q", got, want)
	}
}

// TestReprefixTextRoundTrip pins that a registry's own WriteText output
// passes through unmangled apart from the prefix, so the composed cluster
// document stays parseable by the same greps CI uses on single nodes.
func TestReprefixTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests").Add(7)
	reg.Gauge("slots").Set(3)
	reg.FloatGauge("ratio").Set(0.25)
	reg.Histogram("lat", []float64{10, 100}).Observe(5)
	var plain, prefixed strings.Builder
	if err := reg.Snapshot().WriteText(&plain); err != nil {
		t.Fatal(err)
	}
	if err := ReprefixText(&prefixed, "peer.", []byte(plain.String())); err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(strings.TrimRight(plain.String(), "\n"), "\n") {
		kind, rest, _ := strings.Cut(ln, " ")
		want := kind + " peer." + rest
		if !strings.Contains(prefixed.String(), want+"\n") {
			t.Errorf("line %q missing from prefixed exposition %q", want, prefixed.String())
		}
	}
	if got, want := strings.Count(prefixed.String(), "\n"), strings.Count(plain.String(), "\n"); got != want {
		t.Errorf("prefixed exposition has %d lines, want %d", got, want)
	}
}

// FuzzReprefixText feeds arbitrary documents and prefixes through
// ReprefixText. Every output line must be a known kind, the prefix, a
// non-empty name and a tail, and must be one input line with the prefix
// inserted, in input order; re-prefixing the output with "" must
// reproduce it; nothing may panic.
func FuzzReprefixText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("requests").Add(7)
	reg.FloatGauge("ratio").Set(0.25)
	reg.Histogram("lat", []float64{10, 100}).Observe(5)
	var plain strings.Builder
	if err := reg.Snapshot().WriteText(&plain); err != nil {
		f.Fatal(err)
	}
	for _, doc := range []string{metricDoc, foreignDoc, plain.String()} {
		f.Add("node0.", []byte(doc))
		f.Add("", []byte(doc))
	}
	kinds := map[string]bool{"counter": true, "gauge": true, "fgauge": true, "histogram": true}
	f.Fuzz(func(t *testing.T, prefix string, src []byte) {
		if strings.ContainsAny(prefix, " \r\n") {
			t.Skip("a prefix is part of a metric name")
		}
		var out bytes.Buffer
		if err := ReprefixText(&out, prefix, src); err != nil {
			return // a line over the scanner's limit
		}
		got := out.String()
		if got == "" {
			return
		}
		if !strings.HasSuffix(got, "\n") {
			t.Fatalf("output %q does not end in a newline", got)
		}
		in := strings.Split(string(src), "\n")
		next := 0
		for _, ln := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
			kind, rest, _ := strings.Cut(ln, " ")
			rest, ok := strings.CutPrefix(rest, prefix)
			name, _, hasTail := strings.Cut(rest, " ")
			if !kinds[kind] || !ok || name == "" || !hasTail {
				t.Fatalf("output line %q is not <kind> %s<name> <tail>", ln, prefix)
			}
			from := kind + " " + rest
			for next < len(in) && strings.TrimRight(in[next], "\r") != from {
				next++
			}
			if next == len(in) {
				t.Fatalf("output line %q comes from no input line after the previous one", ln)
			}
			next++
		}
		var again bytes.Buffer
		if err := ReprefixText(&again, "", out.Bytes()); err != nil {
			t.Fatal(err)
		}
		if again.String() != got {
			t.Fatalf("re-prefixing with \"\" changed the output:\n%q\nwant:\n%q", again.String(), got)
		}
	})
}
