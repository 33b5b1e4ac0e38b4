// Package leakcheck guards tests against goroutine leaks: a snapshot of
// the goroutines alive when a test starts is compared — after a settle
// window for asynchronous teardown — against the goroutines alive when
// it ends. Anything new, still running, and not on the ignore list fails
// the test with its stack.
//
// The resilience work in this repository leans on detached goroutines
// (singleflight store reads that outlive canceled waiters, background
// HTTP serving); this package is what keeps "detached" from quietly
// becoming "leaked".
//
// Usage:
//
//	func TestServe(t *testing.T) {
//		defer leakcheck.Check(t)()
//		...
//	}
//
// Some goroutines live beyond any single test by design and are ignored
// by default: the process-wide workpool's persistent workers, net/http's
// keep-alive connection pools, httptest servers, and the testing
// framework itself. Additional ignore substrings can be passed per call.
package leakcheck

import (
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultIgnores are stack substrings of goroutines that legitimately
// persist across tests.
var defaultIgnores = []string{
	"insituviz/internal/workpool", // process-wide persistent workers
	"net/http.(*persistConn)",     // keep-alive client connections
	"net/http.(*Transport)",
	"net/http.(*Server).Serve", // httptest server accept loops
	"net/http/httptest",
	"testing.(*T).Run", // parent test goroutines
	"testing.tRunner",  // sibling parallel tests
	"testing.runTests", // the test main goroutine
	"testing.(*M).startAlarm",
	"os/signal.signal_recv",
	"runtime.goexit",
}

// TB is the subset of testing.TB the checker needs; tests for the
// checker itself substitute a recorder.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// settleWindow bounds how long Check waits for goroutines started during
// the test to finish on their own before declaring them leaked.
const settleWindow = 2 * time.Second

// Check snapshots the current goroutines and returns a function that
// verifies no new ones remain. Use with defer:
//
//	defer leakcheck.Check(t)()
//
// extraIgnores are additional stack substrings to tolerate.
func Check(t TB, extraIgnores ...string) func() {
	t.Helper()
	base := goroutineIDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(settleWindow)
		var leaked []goroutineStack
		for {
			leaked = leaked[:0]
			for _, g := range goroutineStacks() {
				if base[g.id] || ignored(g.stack, extraIgnores) {
					continue
				}
				leaked = append(leaked, g)
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		for _, g := range leaked {
			t.Errorf("leaked goroutine %d:\n%s", g.id, g.stack)
		}
	}
}

func ignored(stack string, extra []string) bool {
	for _, s := range defaultIgnores {
		if strings.Contains(stack, s) {
			return true
		}
	}
	for _, s := range extra {
		if strings.Contains(stack, s) {
			return true
		}
	}
	return false
}

// goroutineStack is one goroutine's identity and full stack text.
type goroutineStack struct {
	id    int64
	stack string
}

// goroutineStacks parses runtime.Stack(all=true) into per-goroutine
// blocks. The text format ("goroutine N [state]:") is the only complete
// goroutine enumeration the runtime exposes.
func goroutineStacks() []goroutineStack {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []goroutineStack
	for _, block := range strings.Split(string(buf), "\n\n") {
		id, ok := parseGoroutineHeader(block)
		if !ok {
			continue
		}
		out = append(out, goroutineStack{id: id, stack: block})
	}
	return out
}

// goroutineIDs returns the set of currently live goroutine IDs.
func goroutineIDs() map[int64]bool {
	stacks := goroutineStacks()
	ids := make(map[int64]bool, len(stacks))
	for _, g := range stacks {
		ids[g.id] = true
	}
	return ids
}

// parseGoroutineHeader extracts N from a "goroutine N [state]:" header.
func parseGoroutineHeader(block string) (int64, bool) {
	const prefix = "goroutine "
	if !strings.HasPrefix(block, prefix) {
		return 0, false
	}
	rest := block[len(prefix):]
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(rest[:sp], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}
