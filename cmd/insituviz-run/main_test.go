package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestHTTPWithoutTelemetry pins the exit path of -http alone: the registry
// exists for the exposition, but with no -telemetry there is no snapshot
// file to write (the run used to finish and then die creating "").
func TestHTTPWithoutTelemetry(t *testing.T) {
	if err := run([]string{"-http", "127.0.0.1:0", "-months", "0.1"}); err != nil {
		t.Fatalf("-http without -telemetry: %v", err)
	}
}

// TestTelemetryFile checks the snapshot still lands where -telemetry says.
func TestTelemetryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := run([]string{"-telemetry", path, "-months", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("telemetry snapshot not written: %v", err)
	}
}
