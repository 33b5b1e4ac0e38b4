package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"insituviz/internal/cinemastore"
)

// verifyEvery is how often a response body is hashed against the store
// index digest; every body's length is checked.
const verifyEvery = 16

// loadgen sends the seeded request sequence to one endpoint. All load
// comes from this process, from `clients` goroutines with one connection
// each.
type loadgen struct {
	client  *http.Client
	base    string // everything of the URL before the time value
	entries []cinemastore.Entry
	seq     []int // request k asks for entries[seq[k % len(seq)]]
	clients int
	next    atomic.Int64 // requests issued so far, over all phases

	sent, failed atomic.Int64
	firstFailure atomic.Value // string
}

// zipfSequence derives the request sequence from the seed: Zipf(s=1.1)
// ranks mapped through a seeded permutation, so which frames are hot
// changes with the seed while the popularity curve does not.
func zipfSequence(seed int64, keys, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(keys)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = perm[zipf.Uint64()]
	}
	return seq
}

func newLoadgen(addr, store string, entries []cinemastore.Entry, seq []int, clients int) *loadgen {
	return &loadgen{
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		},
		base:    "http://" + addr + "/cinema/" + store + "/frame?var=" + entries[0].Variable + "&time=",
		entries: entries,
		seq:     seq,
		clients: clients,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// get fetches entry i and checks the response; failures are counted, and
// the first is kept for the report. A 503 shed is a failure here: the
// workloads are sized so the server never needs to shed.
func (g *loadgen) get(i int, buf *[]byte, verify bool) {
	e := g.entries[i]
	g.sent.Add(1)
	err := func() error {
		resp, err := g.client.Get(g.base + strconv.FormatFloat(e.Time, 'g', -1, 64))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		if int64(cap(*buf)) < e.Bytes+1 {
			*buf = make([]byte, e.Bytes+1)
		}
		// One byte of slack so a body longer than the entry shows as such.
		n, err := io.ReadFull(resp.Body, (*buf)[:e.Bytes+1])
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			if err == nil {
				err = fmt.Errorf("body longer than the indexed %d bytes", e.Bytes)
			}
			return err
		}
		if int64(n) != e.Bytes {
			return fmt.Errorf("body is %d bytes, index says %d", n, e.Bytes)
		}
		if verify {
			if sum := sha256.Sum256((*buf)[:n]); hex.EncodeToString(sum[:]) != e.Digest {
				return fmt.Errorf("body digest differs from the index digest")
			}
		}
		return nil
	}()
	if err != nil {
		g.failed.Add(1)
		g.firstFailure.CompareAndSwap(nil, fmt.Sprintf("GET %s: %v", e.File, err))
	}
}

// request performs the k'th request of the sequence.
func (g *loadgen) request(k int64, buf *[]byte) {
	g.get(g.seq[k%int64(len(g.seq))], buf, k%verifyEvery == 0)
}

// sweep requests every entry once, in index order (the warm-up pass).
func (g *loadgen) sweep() {
	var next atomic.Int64
	g.parallel(func(buf *[]byte) {
		for i := next.Add(1) - 1; i < int64(len(g.entries)); i = next.Add(1) - 1 {
			g.get(int(i), buf, false)
		}
	})
}

func (g *loadgen) parallel(fn func(buf *[]byte)) {
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			fn(&buf)
		}()
	}
	wg.Wait()
}

// closed sends n requests closed-loop — each client sends its next
// request when the previous one completes — and returns the wall time.
func (g *loadgen) closed(n int) time.Duration {
	first := g.next.Add(int64(n)) - int64(n)
	var taken atomic.Int64
	t0 := time.Now()
	g.parallel(func(buf *[]byte) {
		for i := taken.Add(1) - 1; i < int64(n); i = taken.Add(1) - 1 {
			g.request(first+i, buf)
		}
	})
	return time.Since(t0)
}

// pacedResult is one open-loop window.
type pacedResult struct {
	latency []float64 // seconds from the instant each request was due
	late    []float64 // seconds the generator started each request after it was due
}

// paced sends n requests open-loop at rate per second.
func (g *loadgen) paced(rate float64, n int) pacedResult {
	first := g.next.Add(int64(n)) - int64(n)
	bufs := make([][]byte, g.clients)
	return runPaced(rate, n, g.clients, func(client, k int) {
		g.request(first+int64(k), &bufs[client])
	})
}

// runPaced is the open-loop scheduler: request k is due at start + k/rate
// whatever happened to the requests before it. Each of `clients`
// goroutines takes the next unsent request, sleeps until it is due, and
// performs it; latency runs from the due instant, not the send instant,
// so when every client is stuck behind a stall the requests that pile up
// are charged the time they spent waiting to be sent (no coordinated
// omission).
func runPaced(rate float64, n, clients int, do func(client, k int)) pacedResult {
	res := pacedResult{latency: make([]float64, n), late: make([]float64, n)}
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
				due := start.Add(time.Duration(float64(k) * interval))
				sleepUntil(due)
				res.late[k] = time.Since(due).Seconds()
				do(c, int(k))
				res.latency[k] = time.Since(due).Seconds()
			}
		}(c)
	}
	wg.Wait()
	return res
}

// sleepUntil blocks in nanosleep(2) rather than time.Sleep: an idle Go
// runtime waits for its timers in epoll_wait, whose timeout has millisecond
// resolution, so sub-millisecond sleeps came back up to a millisecond late
// and the generator's lateness, not the server, set the measured latency.
func sleepUntil(due time.Time) {
	if wait := time.Until(due); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by that much
	}
}

// scrape fetches a /metrics document and parses it.
func scrape(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the telemetry text exposition ("kind name value"
// lines) into a flat map. Counters, gauges and float gauges keep their
// name; a histogram contributes name.count, name.sum, name.p50 and
// name.p99 (bucket lines are skipped); a span contributes name.entries
// and name.estimated_ns.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		bad := fmt.Errorf("metrics line %d: cannot parse %q", line, sc.Text())
		if len(f) < 3 {
			return nil, bad
		}
		name, rest := f[1], f[2:]
		switch f[0] {
		case "counter", "gauge", "fgauge":
			v, err := strconv.ParseFloat(rest[0], 64)
			if err != nil || len(rest) != 1 {
				return nil, bad
			}
			m[name] = v
		case "histogram", "span":
			// Pairs of "label value"; "le <bound> <count>" bucket lines have
			// three fields and are skipped.
			if rest[0] == "le" {
				continue
			}
			if len(rest)%2 != 0 {
				return nil, bad
			}
			for i := 0; i < len(rest); i += 2 {
				v, err := strconv.ParseFloat(rest[i+1], 64)
				if err != nil {
					return nil, bad
				}
				m[name+"."+rest[i]] = v
			}
		default:
			return nil, bad
		}
	}
	return m, sc.Err()
}

// sumSuffix adds up every metric named suffix or ending in "."+suffix:
// one cinemaserve exposes "serve.cache.hits", a gateway's union exposes
// "node0.serve.cache.hits", "node1.serve.cache.hits", ...
func sumSuffix(m map[string]float64, suffix string) float64 {
	total := 0.0
	for k, v := range m {
		if k == suffix || strings.HasSuffix(k, "."+suffix) {
			total += v
		}
	}
	return total
}

// maxSuffix is sumSuffix for metrics that do not add, such as percentiles.
func maxSuffix(m map[string]float64, suffix string) float64 {
	top := 0.0
	for k, v := range m {
		if (k == suffix || strings.HasSuffix(k, "."+suffix)) && v > top {
			top = v
		}
	}
	return top
}

// windowPercentiles returns the p50 and tail percentile of one window.
func windowPercentiles(xs []float64) (p50, tail float64) {
	tail, _ = tailPercentile(sortedCopy(xs), 0.99)
	return median(xs), tail
}
