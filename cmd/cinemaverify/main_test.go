package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/provenance"
)

// buildStore commits three frames into dir and returns their entries.
func buildStore(t *testing.T, dir string) []cinemastore.Entry {
	t.Helper()
	w, err := cinemastore.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	var entries []cinemastore.Entry
	for i := 0; i < 3; i++ {
		k := cinemastore.Key{Time: float64(3600 * (i + 1)), Variable: "okubo_weiss"}
		e, err := w.Put(k, bytes.Repeat([]byte{byte('a' + i)}, 64+i))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.CloseLedger(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestVerifyStore pins cinemaverify's verdict and report on a clean store
// and on the three damages an operator runs it to find. The store
// directory prints as DIR.
func TestVerifyStore(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, entries []cinemastore.Entry)
		ok     bool
		report string
	}{
		{"clean", func(*testing.T, string, []cinemastore.Entry) {}, true,
			"ok   DIR: 3 frames verified, 1 manifest records, root 700a37c60090…\n"},
		{"rotted frame", func(t *testing.T, dir string, entries []cinemastore.Entry) {
			path := filepath.Join(dir, entries[1].File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x80
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false,
			"FAIL DIR: 1 of 3 frames diverge; first is t000000007200_okubo_weiss.png\n" +
				"  frame 1 (t000000007200_okubo_weiss.png): cinemastore: t000000007200_okubo_weiss.png: digest mismatch " +
				"(got 8b52bd6c659fa5f0118f181b518a700dfe428aabb154015eabd7065f780e10ff, index says 74b128f30cf83de43ddf4aafc40c7b50a7443d3c73a89a7cfca17e15e43d51ab)\n"},
		{"truncated frame", func(t *testing.T, dir string, entries []cinemastore.Entry) {
			path := filepath.Join(dir, entries[0].File)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, false,
			"FAIL DIR: 1 of 3 frames diverge; first is t000000003600_okubo_weiss.png\n" +
				"  frame 0 (t000000003600_okubo_weiss.png): cinemastore: t000000003600_okubo_weiss.png: truncated (32 bytes on read, index says 64)\n"},
		{"manifest removed", func(t *testing.T, dir string, _ []cinemastore.Entry) {
			if err := os.Remove(filepath.Join(dir, provenance.ManifestFile)); err != nil {
				t.Fatal(err)
			}
		}, false,
			"FAIL DIR: store has content digests but no manifest.log manifest\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			c.damage(t, dir, buildStore(t, dir))
			var out bytes.Buffer
			ok := verifyStore(&out, dir, 10)
			if ok != c.ok {
				t.Errorf("verdict %v, want %v", ok, c.ok)
			}
			if got := strings.ReplaceAll(out.String(), dir, "DIR"); got != c.report {
				t.Errorf("report:\n%s\nwant:\n%s", got, c.report)
			}
		})
	}
}
