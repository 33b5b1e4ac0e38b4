package main

// The catalogue is the single source of the names BENCHMARK.json declares:
// `bench -manifest` prints the manifest from it and a test checks the
// committed file still matches.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median; end-to-end metrics only
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDefs = []workloadDef{
	{"live_sim", "10 242-cell solver is ~85% of wall with 2 frames per run: ocean and workpool do the work, render, store and provenance almost none; the control for viz and commit changes"},
	{"live_viz", "sampling every step on a 642-cell mesh: solver is ~4% of wall; raster, composite, PNG, SHA-256, Put, Commit and ledger fsync dominate; the write use of cinemastore and provenance"},
	{"live_post", "the paper's post-processing pipeline: the only workload where pio, ncfile and dump read-back run, and render runs after a read, not in situ"},
	{"transit_tcp", "live_viz's science through intransit to two vizworker processes on loopback: isolates the transport's cost and runs render and cinemastore in another process"},
	{"serve_hot", "one cinemaserve whose cache holds the whole store: every request after warm-up is a hit; admission, cache and HTTP write only, so miss-path changes must not move it"},
	{"serve_churn", "same store and request sequence with a cache 1/8 of the store: hits, coalesced misses, evictions, disk read and SHA-256 verify in proportion; the read use of cinemastore and provenance"},
	{"cluster_churn", "gateway over three nodes on the same store and requests: ring, peer cacheonly probe, node, disk and verify; the only workload where cinemacluster's LRU, ring and relay run"},
}

// End-to-end metrics are the ones every workload reports, because the
// driver wants each of them from every run. What "one unit of work" means
// is per workload kind: one liverun execution (live workloads) or 10 000
// closed-loop requests (serving workloads). See README.md.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"run_wall_s", "s", lower, 0.15},
	{"cpu_s", "s", lower, 0.15},
	{"peak_rss_mb", "MB", lower, 0.10},
}

// Per-layer metrics come from the traced run. The first block are
// end-to-end figures that only one kind of workload has; they read 0 on
// the other kind, which is why they cannot carry a driver bound.
var perLayerDefs = []metricDef{
	{Name: "live.sample_overhead_ms", Unit: "ms", Better: lower},
	{Name: "live.stored_bytes", Unit: "bytes", Better: lower},
	{Name: "serve.req_per_s", Unit: "1/s", Better: higher},
	{Name: "serve.p50_us", Unit: "us", Better: lower},
	{Name: "serve.p99_us", Unit: "us", Better: lower},
	{Name: "serve.cpu_us_per_req", Unit: "us", Better: lower},
	{Name: "fail_ratio", Unit: "ratio", Better: lower},

	{Name: "mesh.build_ms", Unit: "ms", Better: lower},
	{Name: "ocean.step_ms", Unit: "ms", Better: lower},
	{Name: "ocean.step_serial_ms", Unit: "ms", Better: lower},
	{Name: "ocean.step_speedup", Unit: "ratio", Better: higher},
	{Name: "ocean.step_allocs", Unit: "count", Better: lower},
	{Name: "ocean.diag_ms", Unit: "ms", Better: lower},
	{Name: "ocean.steps", Unit: "count", Better: lower},
	{Name: "workpool.overhead_ns", Unit: "ns", Better: lower},
	{Name: "workpool.run_us", Unit: "us", Better: lower},
	{Name: "eddy.detect_us", Unit: "us", Better: lower},
	{Name: "eddy.track_us", Unit: "us", Better: lower},
	{Name: "eddy.count", Unit: "count", Better: higher},
	{Name: "catalyst.coprocess_us", Unit: "us", Better: lower},
	{Name: "catalyst.bytes_copied", Unit: "bytes", Better: lower},
	{Name: "partition.new_ms", Unit: "ms", Better: lower},
	{Name: "render.raster_ms", Unit: "ms", Better: lower},
	{Name: "render.composite_ms", Unit: "ms", Better: lower},
	{Name: "render.ortho_ms", Unit: "ms", Better: lower},
	{Name: "render.png_ms", Unit: "ms", Better: lower},
	{Name: "render.png_bytes", Unit: "bytes", Better: lower},
	{Name: "render.frame_allocs", Unit: "count", Better: lower},
	{Name: "render.frames", Unit: "count", Better: higher},
	{Name: "vizpipe.threshold_us", Unit: "us", Better: lower},
	{Name: "provenance.sha256_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "provenance.merkle_us", Unit: "us", Better: lower},
	{Name: "provenance.ledger_sync_ms", Unit: "ms", Better: lower},
	{Name: "cinemastore.put_us", Unit: "us", Better: lower},
	{Name: "cinemastore.commit_ms", Unit: "ms", Better: lower},
	{Name: "cinemastore.commit_allocs", Unit: "count", Better: lower},
	{Name: "cinemastore.open_ms", Unit: "ms", Better: lower},
	{Name: "cinemastore.read_verify_us", Unit: "us", Better: lower},
	{Name: "ncfile.encode_ms", Unit: "ms", Better: lower},
	{Name: "ncfile.decode_ms", Unit: "ms", Better: lower},
	{Name: "ncfile.dump_bytes", Unit: "bytes", Better: lower},
	{Name: "pio.gather_us", Unit: "us", Better: lower},
	{Name: "intransit.send_sample_ms", Unit: "ms", Better: lower},
	{Name: "intransit.send_sample_raw_ms", Unit: "ms", Better: lower},
	{Name: "intransit.wire_ratio", Unit: "ratio", Better: lower},
	{Name: "intransit.bytes_wire", Unit: "bytes", Better: lower},
	{Name: "intransit.reconnects", Unit: "count", Better: lower},
	{Name: "cinemaserve.hit_ns", Unit: "ns", Better: lower},
	{Name: "cinemaserve.hit_allocs", Unit: "count", Better: lower},
	{Name: "cinemaserve.miss_us", Unit: "us", Better: lower},
	{Name: "cinemaserve.miss_allocs", Unit: "count", Better: lower},
	{Name: "cinemaserve.http_hit_us", Unit: "us", Better: lower},
	{Name: "cinemaserve.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cinemaserve.store_reads", Unit: "count", Better: lower},
	{Name: "cinemaserve.evictions", Unit: "count", Better: lower},
	{Name: "cinemaserve.shed", Unit: "count", Better: lower},
	{Name: "cinemaserve.self_p99_us", Unit: "us", Better: lower},
	{Name: "cinemacluster.gateway_hit_us", Unit: "us", Better: lower},
	{Name: "cinemacluster.ring_owners_ns", Unit: "ns", Better: lower},
	{Name: "cinemacluster.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cinemacluster.node_requests", Unit: "count", Better: lower},
	{Name: "cinemacluster.failover", Unit: "count", Better: lower},
	{Name: "livemodel.observe_ns", Unit: "ns", Better: lower},
	{Name: "core.reproduce_study_ms", Unit: "ms", Better: lower},
	{Name: "core.model_max_err_pct", Unit: "%", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.build_s", Unit: "s", Better: lower},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: lower},
	{Name: "budget.coverage", Unit: "ratio", Better: higher},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const defaultRunSeconds = 10

func benchManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}
