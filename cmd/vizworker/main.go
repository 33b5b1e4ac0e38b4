// Command vizworker is the receiving end of the in-transit tier: a
// dedicated visualization worker that accepts per-rank field shards from
// a liverun sim over the intransit wire protocol, composites and renders
// them through the same render stack the in-process path uses, and
// writes the frames into the shared Cinema store directory.
//
// Usage:
//
//	vizworker -listen :9401 -out /tmp/run/cinema
//	liverun -transport tcp -viz-workers localhost:9401 -out /tmp/run
//
// The sim commits the store index; the worker only writes frames and
// acks the entries back, so a run spread over any number of workers
// still publishes one byte-identical database.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"insituviz/internal/intransit"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vizworker: ")

	listen := flag.String("listen", ":9401", "TCP address to accept sim connections on (\":0\" picks a port)")
	out := flag.String("out", "", "Cinema database directory to write frames into (required; shared with the sim)")
	httpAddr := flag.String("http", "", "serve /metrics and /trace on this address (e.g. :8080; \":0\" picks a port)")
	flag.Parse()

	if *out == "" {
		log.Fatal("-out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	var tracer *trace.Tracer
	if *httpAddr != "" {
		tracer = trace.New(trace.Options{})
		addr, shutdown, err := trace.Serve(*httpAddr, trace.NewHandler(reg, tracer))
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		fmt.Printf("serving exposition on http://%s/ (/metrics, /trace)\n", addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	worker, err := intransit.NewWorker(ln, intransit.WorkerConfig{
		OutDir:    *out,
		Telemetry: reg,
		Tracer:    tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accepting shards on %s, writing frames to %s\n", worker.Addr(), *out)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Printf("received %v, shutting down\n", s)
		worker.Close()
	}()

	if err := worker.Serve(); err != nil {
		log.Fatal(err)
	}
	samples := reg.Counter("transit.recv.samples").Value()
	fmt.Printf("served %d samples\n", samples)
}
