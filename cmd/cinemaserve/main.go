// Command cinemaserve serves one or more Cinema image databases — the
// output of liverun / insituviz-run — over HTTP: the browsable read side
// of the paper's in-situ workflow. Frames come out of a byte-budgeted LRU
// cache with singleflight miss coalescing; overload is shed with 503 +
// Retry-After rather than queued; /metrics exposes the serving telemetry
// (under the "serve." namespace) and /trace the per-slot request
// timeline.
//
// With -cluster the same binary becomes the scale-out gateway instead:
// no local databases, requests hash-route across the -peers fleet with
// -replicas-way ownership, breaker-driven failover, and the tiered cache
// (see internal/cinemacluster). The routes are identical either way, so
// clients cannot tell a gateway from a node.
//
// Usage:
//
//	cinemaserve -http :8080 -db /tmp/run/cinema
//	cinemaserve -http :8080 -db runA=/tmp/a/cinema -db runB=/tmp/b/cinema \
//	    -cache-bytes 33554432 -max-inflight 32
//	cinemaserve -http :8080 -db /tmp/run/cinema -scrub 30s
//	cinemaserve -http :8080 -cluster \
//	    -peers http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003 \
//	    -replicas 2 -repair-dir node0/cinema=/srv/replica0/cinema
//
// -scrub starts the background integrity scrubber: cold frames are
// re-read and re-verified against their content digests every interval
// (bounded by -scrub-budget bytes per sweep), and divergent ones are
// quarantined from serving. In cluster mode, -repair-dir tells the
// gateway where a node's replica lives on local disk so a corrupt frame
// reported by that node can be rewritten from a healthy replica's
// bytes.
//
// Endpoints:
//
//	/cinema/                         store listing (JSON)
//	/cinema/<store>/                 store info
//	/cinema/<store>/index.json       the database index
//	/cinema/<store>/frame?var=...    frame query (time/phi/theta axes, &nearest=1)
//	/cinema/<store>/file/<name>      frame by stored file name
//	/metrics, /trace                 serving telemetry and request timeline
//
// A gateway's /metrics is the cluster union: its own counters under
// "cluster." plus every reachable node's document under "node<i>.".
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"insituviz/internal/cinemacluster"
	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// dbFlags collects repeated -db flags: "dir" or "name=dir".
type dbFlags []string

func (d *dbFlags) String() string     { return strings.Join(*d, ", ") }
func (d *dbFlags) Set(v string) error { *d = append(*d, v); return nil }

// repairDirFlags collects repeated -repair-dir flags:
// "node<i>/<store>=DIR", mapping a replica the gateway may rewrite.
type repairDirFlags struct {
	m map[string]string
}

func (r *repairDirFlags) String() string {
	parts := make([]string, 0, len(r.m))
	for k, v := range r.m {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ", ")
}

func (r *repairDirFlags) Set(v string) error {
	key, dir, ok := strings.Cut(v, "=")
	if !ok || key == "" || dir == "" || !strings.Contains(key, "/") {
		return fmt.Errorf("want node<i>/<store>=DIR, got %q", v)
	}
	if r.m == nil {
		r.m = make(map[string]string)
	}
	r.m[key] = dir
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cinemaserve: ")

	var dbs dbFlags
	flag.Var(&dbs, "db", "database to serve: DIR or NAME=DIR (repeatable)")
	httpAddr := flag.String("http", ":8080", "listen address (\":0\" picks a port)")
	cacheBytes := flag.Int64("cache-bytes", cinemaserve.DefaultCacheBytes, "frame cache budget in bytes")
	maxInflight := flag.Int("max-inflight", cinemaserve.DefaultMaxInflight, "admitted concurrent requests; beyond this, requests are shed with 503")
	retryAfter := flag.Duration("retry-after", cinemaserve.DefaultRetryAfter, "backoff advertised on shed responses")
	repair := flag.Bool("repair", false, "open databases through crash recovery: restore the last good index from its backup if the current one is torn, and quarantine unreferenced or corrupt frame files")
	scrub := flag.Duration("scrub", 0, "background integrity scrub interval: re-read and re-verify cold frames this often (0 disables)")
	scrubBudget := flag.Int64("scrub-budget", cinemaserve.DefaultScrubBudget, "per-sweep scrub I/O budget in frame bytes")
	cluster := flag.Bool("cluster", false, "run as a cluster gateway over -peers instead of serving local databases")
	peers := flag.String("peers", "", "comma-separated serving-node base URLs (cluster mode)")
	replicas := flag.Int("replicas", cinemacluster.DefaultReplicas, "ring replication factor R: owning nodes per frame (cluster mode)")
	var repairDirs repairDirFlags
	flag.Var(&repairDirs, "repair-dir", "replica directory a gateway may repair: node<i>/<store>=DIR (repeatable; cluster mode)")
	chaos := flag.String("chaos", "", fmt.Sprintf("arm deterministic fault injection: seed=N[,profile] (profiles: %s); node mode arms the read/integrity sites, cluster mode the peer sites",
		strings.Join(faults.ProfileNames(), ", ")))
	flag.Parse()

	var injector *faults.Injector
	if *chaos != "" {
		plan, err := faults.ParseSpec(*chaos)
		if err != nil {
			log.Fatal(err)
		}
		if injector, err = faults.New(plan); err != nil {
			log.Fatal(err)
		}
	}

	if *cluster {
		runGateway(*httpAddr, *peers, *replicas, *cacheBytes, *retryAfter, injector, repairDirs.m, dbs)
		return
	}
	if len(repairDirs.m) > 0 {
		log.Fatal("-repair-dir requires -cluster")
	}
	if *peers != "" {
		log.Fatal("-peers requires -cluster")
	}
	if len(dbs) == 0 {
		log.Fatal("no databases: pass at least one -db DIR (or NAME=DIR)")
	}

	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Options{})
	srv := cinemaserve.NewServer(cinemaserve.Config{
		CacheBytes:  *cacheBytes,
		MaxInflight: *maxInflight,
		RetryAfter:  *retryAfter,
		Telemetry:   reg,
		Tracer:      tracer,
		Faults:      injector,
	})
	for _, spec := range dbs {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok {
			dir = spec
			name = filepath.Base(filepath.Dir(filepath.Clean(dir)))
			if name == "." || name == string(filepath.Separator) {
				name = filepath.Base(filepath.Clean(dir))
			}
		}
		var st *cinemastore.Store
		var err error
		if *repair {
			var rep *cinemastore.Repair
			st, rep, err = cinemastore.RepairOpen(dir)
			if err != nil {
				log.Fatal(err)
			}
			if rep.RecoveredBackup {
				fmt.Printf("%s: torn index recovered from %s\n", name, cinemastore.BackupFile)
			}
			if len(rep.Quarantined) > 0 {
				fmt.Printf("%s: quarantined %d unreferenced files into %s/\n",
					name, len(rep.Quarantined), cinemastore.QuarantineDir)
			}
			if len(rep.CorruptQuarantined) > 0 {
				fmt.Printf("%s: quarantined %d corrupt frames into %s/ and dropped them from the index\n",
					name, len(rep.CorruptQuarantined), cinemastore.QuarantineDir)
			}
			if rep.ManifestTruncatedBytes > 0 {
				fmt.Printf("%s: truncated a %d-byte torn manifest tail\n",
					name, rep.ManifestTruncatedBytes)
			}
		} else if st, err = cinemastore.Open(dir); err != nil {
			log.Fatal(err)
		}
		// Arm the on-disk fault sites (store.bitrot, store.truncate) so a
		// chaos profile can rot frames under the serving stack.
		st.SetFaults(injector)
		if err := srv.Mount(name, st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mounted %s: %d frames, %d bytes (format %s) from %s\n",
			name, st.Len(), st.TotalBytes(), cinemastore.IndexVersion, dir)
	}
	if *scrub > 0 {
		stopScrub := srv.StartScrubber(*scrub, *scrubBudget)
		defer stopScrub()
		fmt.Printf("scrubbing every %s (budget %d bytes per sweep)\n", *scrub, *scrubBudget)
	}

	// The serving metrics appear under the "serve." namespace, the same
	// composition liverun uses when it mounts the server next to a live
	// run's registry — so scrapes look identical either way.
	union := telemetry.NewUnion().Add("serve.", reg)
	mux := http.NewServeMux()
	mux.Handle("/", trace.NewHandlerFrom(union, tracer))
	mux.Handle("/cinema/", http.StripPrefix("/cinema", srv.Handler()))

	serve(*httpAddr, mux, func(addr net.Addr) {
		fmt.Printf("serving on http://%s/ (/cinema/, /metrics, /trace)\n", addr)
	})
}

// serve listens on httpAddr, prints the mode's banner for the bound
// address, and blocks until SIGINT or SIGTERM.
func serve(httpAddr string, mux *http.ServeMux, banner func(addr net.Addr)) {
	addr, shutdown, err := trace.Serve(httpAddr, mux)
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	banner(addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	// Give in-flight responses a moment to drain before the listener dies.
	time.Sleep(50 * time.Millisecond)
}

// runGateway is cluster mode: the same routes, served by hash-routing
// across the peer fleet instead of reading local databases.
func runGateway(httpAddr, peers string, replicas int, cacheBytes int64, retryAfter time.Duration, injector *faults.Injector, repairDirs map[string]string, dbs dbFlags) {
	if len(dbs) > 0 {
		log.Fatal("cluster mode routes to -peers; it does not mount -db databases")
	}
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	if len(list) == 0 {
		log.Fatal("cluster mode needs -peers URL[,URL...]")
	}

	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Options{})
	gw, err := cinemacluster.NewGateway(cinemacluster.Config{
		Peers:      list,
		Replicas:   replicas,
		CacheBytes: cacheBytes,
		RetryAfter: retryAfter,
		Telemetry:  reg,
		Tracer:     tracer,
		Faults:     injector,
		RepairDirs: repairDirs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()

	mux := http.NewServeMux()
	mux.Handle("/", trace.NewHandlerFrom(nil, tracer))
	// The exact pattern wins over "/": cluster metrics replace the plain
	// exposition with the fleet union.
	mux.HandleFunc("/metrics", gw.ServeMetrics)
	mux.Handle("/cinema/", http.StripPrefix("/cinema", gw.Handler()))

	serve(httpAddr, mux, func(addr net.Addr) {
		fmt.Printf("gateway over %d nodes (R=%d) on http://%s/ (/cinema/, /metrics, /trace)\n",
			len(list), replicas, addr)
		for i, p := range list {
			fmt.Printf("  node%d = %s\n", i, p)
		}
	})
}
