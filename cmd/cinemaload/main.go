// Command cinemaload drives a closed-loop, Zipf-distributed load against
// a running cinemaserve (or liverun -http) instance and reports the
// throughput and latency quantiles the serving contracts promise. It is
// the measurement half of the serving subsystem: the cache hit ratio and
// shed behavior under a realistic skewed workload are what the byte
// budget and admission bounds were designed for.
//
// Closed loop means each worker issues its next request only after the
// previous one completes, so concurrency is exactly -workers and the
// server's admission control — not the generator — decides what gets
// shed.
//
// With -targets the load spreads round-robin across several endpoints —
// a node fleet driven directly, or several gateways — with client-side
// failover: a transport error or 5xx (other than 503) retries the same
// request on the next target before counting a failure. The run then
// reports a per-target balance table and the max/min ok ratio;
// -balance-fail turns an imbalance beyond that ratio into a nonzero
// exit, which is how CI asserts a cluster rebalanced after losing a
// node.
//
// Usage:
//
//	cinemaload -addr http://127.0.0.1:8080 -store run -requests 2000 -workers 8
//	cinemaload -targets http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	    -store run -requests 2000 -balance-fail 3
//
// Exit status is 1 if any request fails with a status other than 200 or
// 503 (sheds are the server keeping its overload promise, not a failure),
// if no request succeeds at all, or if -balance-fail trips.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insituviz/internal/cinemastore"
)

// targetStats is one endpoint's share of the run.
type targetStats struct {
	req, ok, shed, errs atomic.Int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cinemaload: ")

	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the cinema server")
	targetsFlag := flag.String("targets", "", "comma-separated base URLs to drive round-robin with client-side failover (overrides -addr)")
	store := flag.String("store", "run", "mounted store name to load")
	workers := flag.Int("workers", 8, "closed-loop concurrency")
	requests := flag.Int("requests", 2000, "total requests to issue")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf skew exponent (>1; larger = hotter head)")
	zipfV := flag.Float64("zipf-v", 1, "Zipf value offset (>=1)")
	seed := flag.Int64("seed", 1, "RNG seed (per-worker streams derive from it)")
	nearest := flag.Bool("nearest", false, "query with nearest=1 and axis jitter instead of exact lookups")
	balanceFail := flag.Float64("balance-fail", 0, "exit nonzero if the max/min per-target ok ratio exceeds this (0 disables; needs -targets)")
	flag.Parse()

	if *workers < 1 || *requests < 1 {
		log.Fatalf("need positive -workers and -requests (got %d, %d)", *workers, *requests)
	}
	var targets []string
	if *targetsFlag != "" {
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, strings.TrimRight(t, "/"))
			}
		}
		if len(targets) == 0 {
			log.Fatal("-targets has no URLs")
		}
	} else {
		targets = []string{*addr}
	}
	multi := *targetsFlag != ""
	if *balanceFail > 0 && !multi {
		log.Fatal("-balance-fail needs -targets")
	}

	// One client for every worker, whose transport keeps an idle
	// connection per worker to each target: the default transport keeps
	// two per host, so with more workers the rest re-dial after every
	// request and the latencies include the dials.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = *workers
	client := &http.Client{Timeout: 30 * time.Second, Transport: tr}

	// The index is the work list: every request targets a real entry, so a
	// non-200 response is the server's doing, not a bad key.
	entries := fetchIndex(client, targets, *store)
	if len(entries) == 0 {
		log.Fatalf("store %s has no frames", *store)
	}
	fmt.Printf("loaded index: %d frames in store %q\n", len(entries), *store)

	var issued, ok200, shed503, failed, failovers atomic.Int64
	var rr atomic.Uint64
	stats := make([]targetStats, len(targets))
	latencies := make([][]time.Duration, *workers)
	var firstFailure atomic.Value

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			zipf := rand.NewZipf(rng, *zipfS, *zipfV, uint64(len(entries)-1))
			lats := make([]time.Duration, 0, *requests / *workers + 1)
			for issued.Add(1) <= int64(*requests) {
				e := entries[zipf.Uint64()]
				first := int(rr.Add(1)) % len(targets)
				t0 := time.Now()
				done := false
				var lastErr string
				// Client-side failover: walk the targets from the
				// round-robin pick until one answers. A 503 is an answer —
				// backpressure is respected, not retried elsewhere.
				for attempt := 0; attempt < len(targets) && !done; attempt++ {
					ti := (first + attempt) % len(targets)
					if attempt > 0 {
						failovers.Add(1)
					}
					u := frameURL(targets[ti], *store, e, *nearest, rng)
					stats[ti].req.Add(1)
					resp, err := client.Get(u)
					if err != nil {
						stats[ti].errs.Add(1)
						lastErr = fmt.Sprintf("GET %s: %v", u, err)
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						stats[ti].ok.Add(1)
						ok200.Add(1)
						lats = append(lats, time.Since(t0))
						done = true
					case http.StatusServiceUnavailable:
						stats[ti].shed.Add(1)
						shed503.Add(1)
						done = true
					default:
						stats[ti].errs.Add(1)
						lastErr = fmt.Sprintf("GET %s: status %d", u, resp.StatusCode)
					}
				}
				if !done {
					failed.Add(1)
					firstFailure.CompareAndSwap(nil, lastErr)
				}
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	total := ok200.Load() + shed503.Load() + failed.Load()
	fmt.Printf("requests:   %d total, %d ok, %d shed (503), %d failed in %v\n",
		total, ok200.Load(), shed503.Load(), failed.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f ok/s\n", float64(ok200.Load())/elapsed.Seconds())
	if len(all) > 0 {
		fmt.Printf("latency:    p50 %v  p90 %v  p99 %v  max %v\n",
			quantile(all, 0.50), quantile(all, 0.90), quantile(all, 0.99), all[len(all)-1])
	}

	exit := 0
	if multi {
		if !reportBalance(targets, stats, failovers.Load(), *balanceFail) {
			exit = 1
		}
	}

	if msg := firstFailure.Load(); msg != nil {
		log.Printf("first failure: %s", msg)
	}
	if failed.Load() > 0 || ok200.Load() == 0 {
		exit = 1
	}
	os.Exit(exit)
}

// reportBalance prints the per-target table and the max/min ok ratio,
// and returns false when failLimit > 0 and the spread exceeds it — a
// target serving nothing counts as infinitely imbalanced.
func reportBalance(targets []string, stats []targetStats, failovers int64, failLimit float64) bool {
	fmt.Printf("balance:    %d failovers\n", failovers)
	fmt.Printf("  %-40s %8s %8s %8s %8s\n", "target", "req", "ok", "503", "err")
	minOK, maxOK := int64(math.MaxInt64), int64(0)
	for i, t := range targets {
		ok := stats[i].ok.Load()
		fmt.Printf("  %-40s %8d %8d %8d %8d\n",
			t, stats[i].req.Load(), ok, stats[i].shed.Load(), stats[i].errs.Load())
		if ok < minOK {
			minOK = ok
		}
		if ok > maxOK {
			maxOK = ok
		}
	}
	ratio := math.Inf(1)
	if minOK > 0 {
		ratio = float64(maxOK) / float64(minOK)
	}
	if math.IsInf(ratio, 1) {
		fmt.Printf("  imbalance: max/min ok ratio inf (a target served nothing)\n")
	} else {
		fmt.Printf("  imbalance: max/min ok ratio %.2f\n", ratio)
	}
	if failLimit > 0 && ratio > failLimit {
		log.Printf("balance check failed: ratio %.2f exceeds -balance-fail %.2f", ratio, failLimit)
		return false
	}
	return true
}

// fetchIndex pulls and parses the store's index document, failing over
// across targets like the load loop does.
func fetchIndex(client *http.Client, targets []string, store string) []cinemastore.Entry {
	var lastErr error
	for _, addr := range targets {
		resp, err := client.Get(addr + "/cinema/" + url.PathEscape(store) + "/index.json")
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("index fetch from %s: status %d", addr, resp.StatusCode)
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		entries, err := cinemastore.DecodeIndex(data)
		if err != nil {
			log.Fatal(err)
		}
		return entries
	}
	log.Fatal(lastErr)
	return nil
}

// frameURL builds the query for one entry. Exact mode reproduces the
// entry's axis point bit-for-bit ('g'/-1 round-trips float64 through the
// query string); nearest mode jitters the axes and lets the server snap.
func frameURL(addr, store string, e cinemastore.Entry, nearest bool, rng *rand.Rand) string {
	t, phi, theta := e.Time, e.Phi, e.Theta
	q := url.Values{}
	q.Set("var", e.Variable)
	if nearest {
		t += (rng.Float64() - 0.5) * 10
		phi += (rng.Float64() - 0.5) * 0.1
		theta += (rng.Float64() - 0.5) * 0.1
		q.Set("nearest", "1")
	}
	q.Set("time", strconv.FormatFloat(t, 'g', -1, 64))
	if phi != 0 {
		q.Set("phi", strconv.FormatFloat(phi, 'g', -1, 64))
	}
	if theta != 0 {
		q.Set("theta", strconv.FormatFloat(theta, 'g', -1, 64))
	}
	return addr + "/cinema/" + url.PathEscape(store) + "/frame?" + q.Encode()
}

// quantile returns the q'th latency of a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
