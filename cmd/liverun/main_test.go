package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckPositive pins that an explicit zero or negative -steps,
// -sample-every, -subdivisions, -width, -height or -render-ranks is an
// error naming the flag, where LiveConfig would silently run its default.
func TestCheckPositive(t *testing.T) {
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("liverun", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range positiveFlags {
			fs.Int(name, 1, "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := checkPositive(parse()); err != nil {
		t.Fatalf("positive values rejected: %v", err)
	}
	for _, name := range positiveFlags {
		for _, v := range []string{"0", "-3"} {
			err := checkPositive(parse("-"+name, v))
			if err == nil {
				t.Errorf("-%s %s accepted", name, v)
				continue
			}
			if want := "-" + name + " must be positive, got " + v; err.Error() != want {
				t.Errorf("-%s %s: error %q, want %q", name, v, err, want)
			}
		}
	}
	if err := checkPositive(parse("-steps", "0", "-width", "0")); err == nil || !strings.HasPrefix(err.Error(), "-steps ") {
		t.Errorf("two bad flags: error %v, want the first listed (-steps)", err)
	}
}
