package insituviz

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"insituviz/internal/catalyst"
	"insituviz/internal/cinemastore"
	"insituviz/internal/eddy"
	"insituviz/internal/faults"
	"insituviz/internal/intransit"
	"insituviz/internal/livemodel"
	"insituviz/internal/mesh"
	"insituviz/internal/ncfile"
	"insituviz/internal/ocean"
	"insituviz/internal/pio"
	"insituviz/internal/power"
	"insituviz/internal/provenance"
	"insituviz/internal/render"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
	"insituviz/internal/units"
	"insituviz/internal/workpool"
)

// liveMeterInterval is the synthetic power meter's reporting period for
// live runs. The paper's meters report at 1 Hz relative to minutes-long
// jobs; live runs last milliseconds to seconds of wall time, so the meter
// period scales down the same way (roughly one sample per solver step).
const liveMeterInterval = units.Seconds(1e-3)

// LiveConfig configures a real (not simulated-machine) coupled run: the
// shallow-water ocean solver produces genuine eddy-bearing fields, and the
// selected pipeline visualizes them — in-situ through a Catalyst-style
// adaptor into a Cinema image database, or post-processing through real
// netCDF dumps that are read back and rendered afterwards.
type LiveConfig struct {
	// Mode selects the pipeline (InSitu or PostProcessing).
	Mode Kind
	// MeshSubdivisions controls resolution: 10*4^n+2 cells (default 3,
	// i.e. 642 cells).
	MeshSubdivisions int
	// Steps is the number of solver timesteps (default 96).
	Steps int
	// SampleEverySteps is the co-processing / dump period (default 24).
	SampleEverySteps int
	// OutputDir receives the image database and raw dumps.
	OutputDir string
	// ImageWidth and ImageHeight size the rendered images (default
	// 192x96).
	ImageWidth, ImageHeight int
	// RenderRanks is the number of simulated parallel rendering ranks
	// composited sort-last (default 4).
	RenderRanks int
	// Viscosity is the solver dissipation in m^2/s (default 2e5, suited
	// to coarse meshes).
	Viscosity float64
	// OrthoViews additionally renders each sample from the first N
	// cameras of the standard six-view rig as orthographic globes — the
	// multi-view "image sets" a Cinema database stores (0 disables).
	OrthoViews int
	// IORanks is the number of simulated compute ranks whose field blocks
	// are gathered through the PIO aggregation layer before each raw dump
	// in post-processing mode (default 8).
	IORanks int
	// EddyCoreImages additionally writes, per sample, an image showing
	// only the rotation-dominated cores (W below the -0.2 sigma
	// threshold), produced through the vizpipe threshold filter.
	EddyCoreImages bool
	// Workers is the solver's shared-memory parallelism (ocean
	// Config.Workers): 0 uses GOMAXPROCS, negative forces serial. Results
	// are bit-identical at any worker count.
	Workers int
	// RenderWorkers caps each rasterizer's fan-out at this many concurrent
	// tiles (0 uses GOMAXPROCS). The solver, render ranks, and encoder all
	// share one worker pool, so a coupled run can budget the render share
	// explicitly instead of letting every rasterizer assume the whole
	// machine.
	RenderWorkers int
	// Scenario selects the initial condition: "jet" (default, the
	// Galewsky barotropically unstable jet that rolls up into eddies) or
	// "rossby" (the Williamson TC6 Rossby-Haurwitz wave).
	Scenario string
	// Telemetry, when non-nil, is used instead of a run-private registry,
	// so an HTTP exposition handler holding the same registry can scrape
	// the run while it executes. The final snapshot still lands on
	// LiveResult.Telemetry either way.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives the run's timeline on its wall
	// clock: per-step "sim.step" spans, "viz.sample" spans (with nested
	// "viz.render" and "viz.detect"), "io.dump"/"io.read" spans in
	// post-processing mode — all on the "driver" lane — plus one
	// "render.rank<N>" lane per rendering rank. When set, LiveRun also
	// joins the driver timeline against the Caddy node power model and
	// fills LiveResult.Timeline, PowerProfile, and PhaseEnergy.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms the run's chaos sites: "render.rank"
	// (consulted once per alive rank per sample; an injected crash kills
	// that rank for the rest of the run and its blocks fail over to
	// survivors), "viz.sample" (consulted once per sample; an injected
	// stall at or beyond VizDeadline blows the visualization deadline and
	// the whole sample's frames are dropped instead of stalling the
	// solver), and the Cinema writer's "cinema.commit" torn-index site
	// (the final index commit retries through it). All degradation is
	// deterministic in the plan's seed and accounted in telemetry
	// (render.rank.crashes, render.failover, live.samples.dropped,
	// live.frames.dropped, cinema.commit.retries).
	Faults *faults.Injector
	// VizDeadline is the per-sample in-situ visualization budget
	// (simulated seconds) that injected "viz.sample" stalls are compared
	// against. Zero defaults to 0.5 s when Faults is armed; negative
	// disables the deadline (stalls are logged but nothing is dropped).
	VizDeadline units.Seconds
	// Transport selects where visualization runs: "" or "inproc" renders
	// in-process (the default), "tcp" streams each sample's per-rank
	// field shards to the VizWorkers over the in-transit wire protocol
	// and adopts the frames they store. Both transports commit
	// byte-identical Cinema databases for the same seed — that is the
	// in-transit tier's correctness contract.
	Transport string
	// VizWorkers lists viz worker addresses (host:port) for the "tcp"
	// transport. Samples are owned round-robin; a down worker's samples
	// fail over around the ring.
	VizWorkers []string
	// TransitCodec names the on-wire codec negotiated at handshake
	// ("flate" by default, "raw" for an uncompressed baseline).
	TransitCodec string
	// Model, when non-nil, receives one observation per visualization
	// sample and fits the paper's cost model online (see
	// internal/livemodel). Observations are synthesized deterministically
	// from committed bytes, frame counts, per-sample simulated time, and
	// injected stall seconds through the reference cost model — not from
	// wall-clock span times — so same-seed runs produce byte-identical
	// /model JSON and anomaly logs. LiveRun wires the estimator into the
	// run registry (model.* metrics) and emits a driver-lane Instant per
	// anomaly; the final snapshot lands on LiveResult.Model. When Faults
	// is armed, committed samples additionally consult the "live.io"
	// chaos site, whose injected stalls surface as "io" anomalies.
	Model *livemodel.Estimator
}

func (c *LiveConfig) applyDefaults() {
	if c.MeshSubdivisions == 0 {
		c.MeshSubdivisions = 3
	}
	if c.Steps == 0 {
		c.Steps = 96
	}
	if c.SampleEverySteps == 0 {
		c.SampleEverySteps = 24
	}
	if c.ImageWidth == 0 {
		c.ImageWidth = 192
	}
	if c.ImageHeight == 0 {
		c.ImageHeight = 96
	}
	if c.RenderRanks == 0 {
		c.RenderRanks = 4
	}
	if c.Viscosity == 0 {
		c.Viscosity = 2e5
	}
	if c.IORanks == 0 {
		c.IORanks = 8
	}
	if c.VizDeadline == 0 && c.Faults != nil {
		c.VizDeadline = 0.5
	}
}

// LiveResult summarizes a live coupled run.
type LiveResult struct {
	Steps   int
	Samples int

	Images     int
	ImageBytes Bytes
	RawBytes   Bytes // netCDF dump volume (post-processing mode)

	// EddiesPerSample counts detected eddies at each sample point.
	EddiesPerSample []int
	// CyclonicEddies and AnticyclonicEddies count eddy detections by
	// rotation sense across all samples, classified from the cell
	// vorticity of the same shared diagnostics evaluation that produced
	// the Okubo-Weiss field (in-situ mode only; post-processing reads
	// back only the dumped Okubo-Weiss field).
	CyclonicEddies, AnticyclonicEddies int
	// Tracks is the number of distinct eddy tracks observed.
	Tracks int
	// LongestTrackLifetime is the longest observed eddy life (simulated
	// seconds).
	LongestTrackLifetime Seconds

	// MaxVelocity is the peak edge speed at the end of the run (m/s), a
	// stability indicator.
	MaxVelocity float64

	// MeanTrackLifetime is the average observed eddy lifetime.
	MeanTrackLifetime Seconds
	// LongestTrackDistance is the farthest any eddy centroid traveled (m).
	LongestTrackDistance float64

	// DroppedSamples and DroppedFrames count graceful degradation under
	// injected faults: samples whose visualization blew the VizDeadline
	// and the frames those samples would have produced. RankCrashes is
	// the number of render ranks killed by injection; Failovers counts
	// render blocks (and ortho views) a surviving rank rendered on a dead
	// owner's behalf. All zero on a fault-free run.
	DroppedSamples, DroppedFrames int
	RankCrashes, Failovers        int

	// HaloBytesPerField is the per-field halo-exchange volume of the
	// render-rank decomposition — the on-fabric traffic a distributed run
	// pays every refresh.
	HaloBytesPerField Bytes

	// Telemetry is the run's metric snapshot: solver step counts and
	// sampled step wall time (ocean.*), worker-pool fan-out and queue
	// occupancy (workpool.*), co-processing copies (catalyst.*), frames
	// and encoded bytes (render.*), raw-dump traffic (live.raw.*), and
	// the per-sample visualization span (live.sample.time). See the
	// README's Telemetry section for the full metric name list and
	// exposition format.
	Telemetry *telemetry.Snapshot

	// Timeline is the run's trace snapshot (nil unless LiveConfig.Tracer
	// was set): the driver lane's phase spans plus per-rank render lanes.
	Timeline *trace.Timeline
	// PowerProfile is the synthetic meter's profile of the run — the Caddy
	// node power model applied to the driver lane's phase step function,
	// then sampled at liveMeterInterval, mirroring how the paper's 1 Hz
	// meters watched its minutes-long jobs.
	PowerProfile *power.Profile
	// PhaseEnergy attributes PowerProfile back onto the driver phases:
	// per-phase energies that sum to PowerProfile.Energy() up to float64
	// rounding.
	PhaseEnergy *trace.Attribution

	// Model is the online cost-model fit at run end (nil unless
	// LiveConfig.Model was set): coefficients with confidence intervals,
	// residual quantiles, energy burn, and the anomaly event log.
	Model *livemodel.Snapshot

	OutputDir string
}

// LiveRun executes a real coupled simulation-visualization run. Unlike
// RunPipeline — which runs on the simulated 150-node machine with
// calibrated timings — LiveRun actually computes: it integrates the
// shallow-water equations, derives Okubo-Weiss, renders PNGs in parallel
// with sort-last compositing, writes genuine netCDF (post-processing) or a
// Cinema database (in-situ), and detects and tracks eddies.
func LiveRun(cfg LiveConfig) (*LiveResult, error) {
	cfg.applyDefaults()
	if cfg.OutputDir == "" {
		return nil, fmt.Errorf("insituviz: LiveConfig.OutputDir is required")
	}
	if cfg.Steps < 1 || cfg.SampleEverySteps < 1 {
		return nil, fmt.Errorf("insituviz: invalid steps %d / sampling %d", cfg.Steps, cfg.SampleEverySteps)
	}
	if err := os.MkdirAll(cfg.OutputDir, 0o755); err != nil {
		return nil, fmt.Errorf("insituviz: %w", err)
	}

	// Unless the caller supplies a registry (for live HTTP exposition),
	// every live run owns a fresh one: the solver, worker pool, adaptor,
	// and image database all report into it, and the final snapshot lands
	// on LiveResult.Telemetry. The worker pool is process-wide, so its
	// contribution is the difference between the pool's lifetime counters
	// at the start and end of this run.
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	wp0 := workpool.Snapshot()

	msh, err := mesh.NewIcosphere(cfg.MeshSubdivisions, mesh.EarthRadius)
	if err != nil {
		return nil, err
	}
	model, err := ocean.NewModel(msh, ocean.Config{Viscosity: cfg.Viscosity, Workers: cfg.Workers, Telemetry: reg})
	if err != nil {
		return nil, err
	}
	var state *ocean.State
	var meanDepth float64
	switch cfg.Scenario {
	case "", "jet":
		meanDepth = 10000
		state, err = ocean.UnstableJet(model, ocean.DefaultGalewsky())
	case "rossby":
		meanDepth = 8000
		state, err = ocean.RossbyHaurwitzWave(model)
	default:
		return nil, fmt.Errorf("insituviz: unknown scenario %q (want jet or rossby)", cfg.Scenario)
	}
	if err != nil {
		return nil, err
	}
	dt := model.SuggestedTimestep(meanDepth)

	// One sample renderer defines a sample's image set for either transport:
	// in-process it rasterizes; in transit the workers hold its twin and
	// this one supplies the sharding map and the frame count.
	sr, err := render.NewSampleRenderer(msh, render.SampleConfig{
		Field:      "okubo_weiss",
		Width:      cfg.ImageWidth,
		Height:     cfg.ImageHeight,
		Ranks:      cfg.RenderRanks,
		OrthoViews: cfg.OrthoViews,
		Cores:      cfg.EddyCoreImages,
		Workers:    cfg.RenderWorkers,
	})
	if err != nil {
		return nil, err
	}
	db, err := render.NewCinemaDB(filepath.Join(cfg.OutputDir, "cinema"))
	if err != nil {
		return nil, err
	}
	defer db.Close() // error returns; the success path checks Close below
	db.SetTelemetry(reg)
	db.SetFaults(cfg.Faults)
	tracker, err := eddy.NewTracker(msh.Radius, 2e6)
	if err != nil {
		return nil, err
	}

	res := &LiveResult{OutputDir: cfg.OutputDir}
	res.HaloBytesPerField = Bytes(sr.Exchange().BytesPerField)
	mCrashes := reg.Counter("render.rank.crashes")
	mFailover := reg.Counter("render.failover")

	// The render step is picked once (see vizStep).
	var viz vizStep
	switch cfg.Transport {
	case "", "inproc":
		lv := &localViz{
			sr: sr,
			// The encode+store stage runs behind the renders: Submit stages
			// a copy and the encoder goroutine drains in order, so each
			// frame's PNG encode overlaps the next frame's rasterization.
			pw:         render.NewPipelinedCinemaWriter(db, 4),
			res:        res,
			rankSite:   cfg.Faults.Site("render.rank"),
			rankLanes:  make([]*trace.Lane, cfg.RenderRanks),
			alive:      make([]bool, cfg.RenderRanks),
			aliveCount: cfg.RenderRanks,
			mCrashes:   mCrashes,
			mFailover:  mFailover,
		}
		// Each rendering rank gets its own timeline lane (nil-safe: a nil
		// tracer yields nil lanes, which no-op) so the Perfetto view shows
		// the partial renders side by side.
		for i := range lv.alive {
			lv.rankLanes[i] = cfg.Tracer.Lane(fmt.Sprintf("render.rank%d", i))
			lv.alive[i] = true
		}
		viz = lv
	case "tcp":
		// In-transit tier: each sample's tables are sharded by the same
		// partition and shipped to the viz workers, which render and store
		// the frames into this run's cinema directory; the sim adopts their
		// entries and commits the one index over them.
		if len(cfg.VizWorkers) == 0 {
			return nil, fmt.Errorf("insituviz: transport tcp needs LiveConfig.VizWorkers")
		}
		tc, err := intransit.Dial(intransit.Options{
			Workers: cfg.VizWorkers,
			Codec:   cfg.TransitCodec,
			Config: intransit.RunConfig{
				MeshSubdivisions: cfg.MeshSubdivisions,
				ImageWidth:       cfg.ImageWidth,
				ImageHeight:      cfg.ImageHeight,
				RenderRanks:      cfg.RenderRanks,
				OrthoViews:       cfg.OrthoViews,
				EddyCoreImages:   cfg.EddyCoreImages,
				Fields:           []string{"okubo_weiss"},
			},
			Mesh:      msh,
			Cells:     sr.Cells(),
			Telemetry: reg,
			Tracer:    cfg.Tracer,
			Faults:    cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
		viz = &transitViz{tc: tc, db: db}
	default:
		return nil, fmt.Errorf("insituviz: unknown transport %q (want inproc or tcp)", cfg.Transport)
	}
	defer viz.close()

	// Sampling points are rare (a handful per run), so the per-sample
	// visualization span times every entry rather than sampling.
	sampleSpan := reg.Span("live.sample.time", 1)

	// The driver lane carries the phase step function the attribution
	// consumes.
	drv := cfg.Tracer.Lane("driver")

	// Chaos state: a nil injector yields nil sites, so a fault-free run
	// pays one pointer test per consult.
	vizSite := cfg.Faults.Site("viz.sample")
	mDroppedSamples := reg.Counter("live.samples.dropped")
	mDroppedFrames := reg.Counter("live.frames.dropped")
	// Live-model wiring: the estimator publishes model.* metrics into
	// this run's registry and announces anomalies as driver-lane Instant
	// events. Observations are synthesized through the deterministic
	// reference cost model over per-sample committed bytes, frame
	// counts, simulated solver seconds, and injected stall seconds —
	// wall-clock span times would break the byte-stability contract of
	// /model and the anomaly log. Committed samples consult the
	// "live.io" chaos site so injected I/O stalls land in the observed
	// time (and trip the "io" detector) without touching modeled cost.
	costRef := livemodel.NodeCostModel()
	ioSite := cfg.Faults.Site("live.io")
	lastModelSim := 0.0
	if cfg.Model != nil {
		cfg.Model.SetTelemetry(reg)
		cfg.Model.OnAnomaly(func(a livemodel.Anomaly) {
			drv.Instant("model.anomaly." + a.Kind)
		})
	}

	// settle is the tail every sample ends in — account, observe, track.
	// A dropped sample (blown viz deadline, exhausted in-transit worker
	// ring) degrades gracefully: its frames are accounted as dropped,
	// recorded as a "degraded" phase on the driver lane, and the tracker
	// advances empty; it commits nothing but still burns its simulated
	// window plus any injected stall — the excess the viz-overload
	// detector exists to catch.
	settle := func(p pendingSample, c sampleCost, dropped bool) error {
		eddies := p.eddies
		if dropped {
			drv.Begin("degraded")
			drv.End()
			mDroppedSamples.Inc()
			mDroppedFrames.Add(int64(sr.FramesPerSample()))
			res.DroppedSamples++
			res.DroppedFrames += sr.FramesPerSample()
			eddies = nil
		} else {
			res.CyclonicEddies += p.cyclonic
			res.AnticyclonicEddies += p.anticyclonic
		}
		res.Images += c.frames
		res.ImageBytes += Bytes(c.bytes)
		res.EddiesPerSample = append(res.EddiesPerSample, len(eddies))
		if cfg.Model != nil {
			if !dropped {
				if f, ok := ioSite.Next(); ok && f.Kind == faults.KindStall {
					c.ioStall += float64(f.Stall)
				}
			}
			obs := costRef.Observation(p.simTime-lastModelSim,
				float64(c.sioBytes)/1e9, float64(c.frames), c.ioStall, c.vizStall)
			obs.TS = float64(cfg.Tracer.Now()) / 1e9
			lastModelSim = p.simTime
			cfg.Model.Observe(obs)
		}
		return tracker.Advance(p.simTime, eddies)
	}

	// Samples settle in sequence order once their render step has
	// reported, which in transit can be after later samples were sent.
	// pending holds the samples sent (or dropped at their deadline) and not
	// yet settled, oldest first. drain settles them; unless wait is set it
	// stops at the first whose render step would make it wait.
	var pending []pendingSample
	drain := func(wait bool) error {
		for len(pending) > 0 {
			p := pending[0]
			c, dropped := p.cost, p.dropped
			if !dropped {
				if !wait && !viz.ready() {
					return nil
				}
				var err error
				if c, err = viz.collect(); errors.Is(err, intransit.ErrUnavailable) {
					dropped = true
				} else if err != nil {
					return err
				}
			}
			pending = pending[1:]
			if err := settle(p, c, dropped); err != nil {
				return err
			}
		}
		return nil
	}

	// detect runs the sim-side analysis of one sampled field into p: the
	// Okubo-Weiss threshold, eddy detection, and the spin census (counted
	// at settle, so a sample dropped after detection adds nothing).
	// Detection and tracking stay on the sim even when rendering is remote,
	// because the tracker's state must see every sample in order. cellVort,
	// when non-nil, is the cell vorticity derived from the same diagnostics
	// evaluation as the field and classifies eddy rotation sense.
	detect := func(p *pendingSample, field, cellVort []float64) error {
		th := ocean.OkuboWeissThreshold(field)
		drv.Begin("viz.detect")
		defer drv.End()
		if th < 0 {
			var err error
			if p.eddies, err = eddy.Detect(msh, field, th, 2); err != nil {
				return err
			}
		}
		if cellVort != nil {
			for i := range p.eddies {
				spin, err := eddy.ClassifySpin(msh, p.eddies[i], cellVort)
				if err != nil {
					return err
				}
				switch spin {
				case eddy.SpinCyclonic:
					p.cyclonic++
				case eddy.SpinAnticyclonic:
					p.anticyclonic++
				}
			}
		}
		return nil
	}

	// visualize is the one sampling path: deadline, send, detect, then the
	// settle tail of every sample whose render step has reported.
	visualize := func(simTime float64, field, cellVort []float64) error {
		tm := sampleSpan.Start()
		defer tm.End()
		p := pendingSample{simTime: simTime}
		// Deadline check first: an injected stall at or beyond the budget
		// means this sample's visualization would not finish in time, and
		// it is dropped rather than stalling the solver behind it.
		if f, ok := vizSite.Next(); ok && f.Kind == faults.KindStall &&
			cfg.VizDeadline > 0 && f.Stall >= cfg.VizDeadline {
			p.cost.vizStall, p.dropped = float64(f.Stall), true
			pending = append(pending, p)
			return drain(false)
		}
		drv.Begin("viz.sample")
		defer drv.End()
		drv.Begin("viz.render")
		err := viz.send(simTime, field)
		drv.End()
		if err != nil {
			return err
		}
		if err := detect(&p, field, cellVort); err != nil {
			return err
		}
		pending = append(pending, p)
		return drain(false)
	}

	switch cfg.Mode {
	case InSitu:
		if err := runLiveInSitu(cfg, model, state, dt, reg, visualize); err != nil {
			return nil, err
		}
	case PostProcessing:
		raw, err := runLivePost(cfg, msh, model, state, dt, reg, visualize)
		if err != nil {
			return nil, err
		}
		res.RawBytes = raw
	default:
		return nil, fmt.Errorf("insituviz: unknown mode %v", cfg.Mode)
	}

	// Settle the samples still in flight, then release the render step
	// before committing the index.
	if err := drain(true); err != nil {
		return nil, err
	}
	if err := viz.close(); err != nil {
		return nil, err
	}

	// The index commit is the one write the whole run hinges on, so it
	// retries through injected torn writes: a TornCommitError leaves a
	// corrupt index prefix the next atomic commit simply overwrites, and
	// a TornManifestError leaves a torn provenance-ledger tail the next
	// commit truncates and rewrites.
	mCommitRetries := reg.Counter("cinema.commit.retries")
	const commitAttempts = 4
	for attempt := 1; ; attempt++ {
		_, err := db.WriteIndex()
		if err == nil {
			break
		}
		var torn *cinemastore.TornCommitError
		var tornM *provenance.TornManifestError
		if !(errors.As(err, &torn) || errors.As(err, &tornM)) || attempt >= commitAttempts {
			return nil, err
		}
		mCommitRetries.Inc()
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	tracks := tracker.Finish()
	res.Tracks = len(tracks)
	res.LongestTrackLifetime = units.Seconds(eddy.LongestLifetime(tracks))
	ts := eddy.SummarizeTracks(tracks, msh.Radius)
	res.MeanTrackLifetime = units.Seconds(ts.MeanLifetime)
	res.LongestTrackDistance = ts.LongestDistance
	res.Steps = cfg.Steps
	res.Samples = cfg.Steps / cfg.SampleEverySteps
	res.MaxVelocity = state.MaxAbsVelocity()

	// Fold in this run's share of the process-wide worker pool activity,
	// then freeze the registry into the result.
	wp := workpool.Snapshot().Sub(wp0)
	reg.Counter("workpool.chunks.submitted").Add(wp.Submitted)
	reg.Counter("workpool.chunks.inline").Add(wp.Inline)
	reg.Counter("workpool.chunks.helped").Add(wp.Helped)
	reg.Counter("workpool.steals").Add(wp.Steals)
	reg.Counter("workpool.parks").Add(wp.Parks)
	reg.Counter("workpool.wakeups").Add(wp.Wakeups)
	reg.Gauge("workpool.queue.highwater").Set(wp.QueueHighwater)
	reg.Gauge("workpool.workers").Set(wp.Workers)
	res.Telemetry = reg.Snapshot()

	// Phase-aligned power/energy attribution: flatten the driver lane
	// into its phase step function, apply the Caddy node power model to
	// synthesize the ground-truth draw, sample it with the synthetic
	// meter, and join the profile back against the phases. Per-phase
	// energies sum to PowerProfile.Energy() up to float64 rounding.
	if cfg.Tracer != nil {
		tl := cfg.Tracer.Snapshot()
		res.Timeline = tl
		if drvTL := tl.Lane("driver"); drvTL != nil && len(drvTL.Spans) > 0 {
			intervals := drvTL.PhaseIntervals()
			gt, err := trace.NodePowerModel().Trace(intervals)
			if err != nil {
				return nil, err
			}
			meter := power.Meter{Interval: liveMeterInterval, Name: "node-model"}
			prof, err := meter.Sample(gt)
			if err != nil {
				return nil, err
			}
			att, err := trace.Attribute(meter.Name, intervals, prof)
			if err != nil {
				return nil, err
			}
			res.PowerProfile = prof
			res.PhaseEnergy = att
		}
	}
	if cfg.Model != nil {
		res.Model = cfg.Model.Snapshot()
	}
	return res, nil
}

// sampleCost is what one visualized sample cost, as either render step
// reports it and the live model consumes it.
type sampleCost struct {
	frames int
	bytes  int64 // committed to the store
	// sioBytes is the model's S_io: the committed bytes in-process, the
	// measured wire bytes in transit.
	sioBytes int64
	// ioStall and vizStall are injected stall seconds.
	ioStall, vizStall float64
}

// pendingSample is a sample waiting for its settle tail: what detection
// found in it and, for a sample dropped at its deadline, its cost.
type pendingSample struct {
	simTime                float64
	eddies                 []eddy.Eddy
	cyclonic, anticyclonic int
	cost                   sampleCost
	dropped                bool // blown deadline: nothing was sent
}

// vizStep is a transport's render step. send starts one sampled field's
// frames; collect returns the cost of the oldest sample sent and not yet
// collected, waiting for it if need be, and ready reports whether it
// would return at once. In process a sample is committed before send
// returns; in transit it is committed when its worker acks, with at most
// one sample in flight per worker. close releases the step (idempotent)
// and surfaces any write error no sample lived to collect.
type vizStep interface {
	send(simTime float64, field []float64) error
	ready() bool
	collect() (sampleCost, error)
	close() error
}

// transitViz is the in-transit render step: the client ships each
// sample's tables to the viz workers, which render and store the frames
// into this run's cinema directory. Transport faults reconnect and resend
// inside the client; only a fully exhausted worker ring surfaces, as
// intransit.ErrUnavailable.
type transitViz struct {
	tc *intransit.Client
	db *render.CinemaDB
}

func (v *transitViz) send(simTime float64, field []float64) error { return v.tc.Send(simTime, field) }
func (v *transitViz) ready() bool                                 { return v.tc.Ready() }
func (v *transitViz) close() error                                { return v.tc.Close() }

// collect adopts the entries the oldest sample's worker stored into this
// run's index — in sequence order, so the index is the in-process run's.
// S_io is the measured wire volume: the real network cost the in-transit
// tier exists to expose to the fit.
func (v *transitViz) collect() (sampleCost, error) {
	r, err := v.tc.Collect()
	if err != nil {
		return sampleCost{}, err
	}
	for _, e := range r.Entries {
		if err := v.db.Adopt(e); err != nil {
			return sampleCost{}, err
		}
	}
	return sampleCost{frames: r.Frames, bytes: r.Bytes, sioBytes: r.WireBytes, ioStall: float64(r.Stall)}, nil
}

// localViz is the in-process render step: crash roulette over the render
// ranks, then the shared sample renderer feeding the pipelined encoder.
type localViz struct {
	sr   *render.SampleRenderer
	pw   *render.PipelinedCinemaWriter
	res  *LiveResult
	cost sampleCost // the last sample's, until collected

	rankSite   *faults.Site
	rankLanes  []*trace.Lane
	alive      []bool
	aliveCount int
	mCrashes   *telemetry.Counter
	mFailover  *telemetry.Counter
}

// standIn returns the surviving rank that renders dead rank i's block,
// walking the ring to the next alive rank.
func (lv *localViz) standIn(i int) int {
	n := len(lv.alive)
	for j := (i + 1) % n; j != i; j = (j + 1) % n {
		if lv.alive[j] {
			return j
		}
	}
	return i
}

// failover accounts one block or view a survivor renders for a dead owner.
func (lv *localViz) failover() {
	lv.mFailover.Inc()
	lv.res.Failovers++
}

func (lv *localViz) ready() bool                  { return true }
func (lv *localViz) collect() (sampleCost, error) { return lv.cost, nil }
func (lv *localViz) close() error                 { return lv.pw.Close() }

// send renders one sample and waits until its frames are written.
func (lv *localViz) send(simTime float64, field []float64) error {
	// Crash roulette: each still-alive rank consults the injector once per
	// sample. A crash kills the rank for the rest of the run. The last
	// survivor is immune — total loss is a run failure, not graceful
	// degradation.
	n := len(lv.alive)
	for i := range lv.alive {
		if !lv.alive[i] || lv.aliveCount <= 1 {
			continue
		}
		if f, ok := lv.rankSite.Next(); ok && f.Kind == faults.KindCrash {
			lv.alive[i] = false
			lv.aliveCount--
			lv.mCrashes.Inc()
			lv.res.RankCrashes++
			lv.rankLanes[i].Instant("rank.crash")
		}
	}
	// A dead rank's blocks fail over to the next survivor, whose lane shows
	// the render; each ortho view is owned round-robin by a rank and fails
	// over the same way.
	for i := range lv.alive {
		owner := i
		if !lv.alive[i] {
			owner = lv.standIn(i)
			lv.failover()
		}
		lv.sr.SetLane(i, lv.rankLanes[owner])
	}
	for v := 0; v < lv.sr.Views(); v++ {
		if !lv.alive[v%n] {
			lv.failover()
		}
	}
	tables, err := lv.sr.Derive(simTime, field)
	if err != nil {
		return err
	}
	if err := lv.sr.Render(tables, simTime, lv.pw.Submit); err != nil {
		return err
	}
	// Per-sample accounting barrier: wait for the encoder to finish this
	// sample's frames so only committed frames are counted and a write
	// failure aborts at the sample that caused it.
	entries, bytes, err := lv.pw.Flush()
	lv.cost = sampleCost{frames: len(entries), bytes: int64(bytes), sioBytes: int64(bytes)}
	return err
}

// advanceStep integrates one solver step under the driver lane's
// "sim.step" span and rejects a non-finite state.
func advanceStep(drv *trace.Lane, model *ocean.Model, state *ocean.State, dt float64, step int) error {
	drv.Begin("sim.step")
	err := model.Step(state, dt)
	drv.End()
	if err != nil {
		return err
	}
	if err := state.CheckFinite(); err != nil {
		return fmt.Errorf("insituviz: step %d: %w", step, err)
	}
	return nil
}

// runLiveInSitu advances the solver, co-processing through a Catalyst
// adaptor at the sampling period. The sampling path reuses one diagnostics
// evaluation per sample for both the Okubo-Weiss field and the spin
// census's cell vorticity, and writes into buffers held across the run, so
// the steady-state loop does not allocate.
func runLiveInSitu(cfg LiveConfig, model *ocean.Model, state *ocean.State, dt float64,
	reg *telemetry.Registry, visualize func(simTime float64, field, cellVort []float64) error) error {
	adaptor, err := catalyst.NewAdaptor(cfg.SampleEverySteps)
	if err != nil {
		return err
	}
	// The live pipeline consumes each snapshot synchronously, so the
	// adaptor can reuse its deep-copy buffer across invocations.
	adaptor.SetReuse(true)
	adaptor.SetTelemetry(reg)
	diag := model.NewDiagnostics()
	owBuf := make([]float64, model.Mesh.NCells())
	cvBuf := make([]float64, model.Mesh.NCells())
	var cellVort []float64 // refreshed per sample alongside the snapshot
	if err := adaptor.AddPipeline(catalyst.PipelineFunc(func(fd *catalyst.FieldData) error {
		return visualize(fd.Time, fd.Values, cellVort)
	})); err != nil {
		return err
	}
	drv := cfg.Tracer.Lane("driver")
	for step := 1; step <= cfg.Steps; step++ {
		if err := advanceStep(drv, model, state, dt, step); err != nil {
			return err
		}
		if adaptor.ShouldProcess(step) {
			// One shared diagnostics evaluation feeds both derived fields.
			if err := model.ComputeDiagnosticsInto(state, diag); err != nil {
				return err
			}
			model.OkuboWeissFrom(diag, owBuf)
			cellVort = model.CellVorticityFrom(diag, cvBuf)
			if _, err := adaptor.CoProcess(step, float64(step)*dt, "okubo_weiss", owBuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// runLivePost advances the solver writing real netCDF dumps, then reads
// them back and visualizes — the Fig. 1a workflow — returning the raw dump
// volume.
func runLivePost(cfg LiveConfig, msh *mesh.Mesh, model *ocean.Model, state *ocean.State, dt float64,
	reg *telemetry.Registry, visualize func(simTime float64, field, cellVort []float64) error) (units.Bytes, error) {
	rawDir := filepath.Join(cfg.OutputDir, "raw")
	if err := os.MkdirAll(rawDir, 0o755); err != nil {
		return 0, fmt.Errorf("insituviz: %w", err)
	}
	// Raw dumps go through the PIO aggregation layer: the field is block-
	// decomposed across simulated compute ranks and gathered onto I/O
	// aggregators before the netCDF write, as MPAS writes through
	// PIO/parallel-netCDF.
	ioRanks := cfg.IORanks
	if ioRanks > msh.NCells() {
		ioRanks = msh.NCells()
	}
	dec, err := pio.NewDecomposition(msh.NCells(), ioRanks)
	if err != nil {
		return 0, err
	}
	aggregators := ioRanks / 4
	if aggregators < 1 {
		aggregators = 1
	}
	plan, err := pio.NewPlan(dec, aggregators)
	if err != nil {
		return 0, err
	}

	// The dump/readback traffic is the post-processing pipeline's defining
	// cost; expose it alongside the step/render counters.
	rawBytesC := reg.Counter("live.raw.bytes")
	rawDumpsC := reg.Counter("live.raw.dumps")
	readbackC := reg.Counter("live.readback.bytes")

	var rawBytes units.Bytes
	var dumps []string
	var sizes []int64
	var times []float64
	ow := make([]float64, msh.NCells()) // reused across samples
	drv := cfg.Tracer.Lane("driver")
	for step := 1; step <= cfg.Steps; step++ {
		if err := advanceStep(drv, model, state, dt, step); err != nil {
			return 0, err
		}
		if step%cfg.SampleEverySteps != 0 {
			continue
		}
		simTime := float64(step) * dt
		if err := model.OkuboWeissInto(state, ow); err != nil {
			return 0, err
		}
		// Rank-local blocks -> aggregators -> one global array for the
		// writer: the whole gather+write window is the "io.dump" phase.
		drv.Begin("io.dump")
		parts, err := dec.Scatter(ow)
		if err != nil {
			drv.End()
			return 0, err
		}
		gathered, _, err := plan.Gather(parts, 8)
		if err != nil {
			drv.End()
			return 0, err
		}
		path := filepath.Join(rawDir, fmt.Sprintf("output_%05d.nc", step))
		n, err := writeOkuboWeissDump(path, msh, simTime, gathered)
		drv.End()
		if err != nil {
			return 0, err
		}
		rawBytes += units.Bytes(n)
		rawBytesC.Add(n)
		rawDumpsC.Inc()
		dumps = append(dumps, path)
		sizes = append(sizes, n)
		times = append(times, simTime)
	}
	// Post-processing phase: read every dump back and visualize.
	for i, path := range dumps {
		drv.Begin("io.read")
		f, err := ncfile.ReadFile(path)
		drv.End()
		if err != nil {
			return 0, err
		}
		readbackC.Add(sizes[i])
		id, err := f.VarID("okuboWeiss")
		if err != nil {
			return 0, err
		}
		field, err := f.Data(id)
		if err != nil {
			return 0, err
		}
		// Post-processing has only the dumped Okubo-Weiss field; there is
		// no live state to derive a vorticity-based spin census from.
		if err := visualize(times[i], field, nil); err != nil {
			return 0, err
		}
	}
	return rawBytes, nil
}

// writeOkuboWeissDump writes one timestep's Okubo-Weiss field plus cell
// coordinates as a classic netCDF file, returning its size.
func writeOkuboWeissDump(path string, msh *mesh.Mesh, simTime float64, ow []float64) (int64, error) {
	f := ncfile.New()
	cellDim, err := f.AddDimension("nCells", msh.NCells())
	if err != nil {
		return 0, err
	}
	if err := f.AddGlobalAttribute(ncfile.TextAttribute("title", "insituviz Okubo-Weiss dump")); err != nil {
		return 0, err
	}
	if err := f.AddGlobalAttribute(ncfile.NumericAttribute("sim_time_seconds", ncfile.Double, simTime)); err != nil {
		return 0, err
	}
	latID, err := f.AddVariable("latCell", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	lonID, err := f.AddVariable("lonCell", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	owID, err := f.AddVariable("okuboWeiss", ncfile.Double, []int{cellDim})
	if err != nil {
		return 0, err
	}
	if err := f.AddVariableAttribute(owID, ncfile.TextAttribute("units", "s-2")); err != nil {
		return 0, err
	}
	lat := make([]float64, msh.NCells())
	lon := make([]float64, msh.NCells())
	for ci := range msh.Cells {
		lat[ci] = msh.Cells[ci].Lat
		lon[ci] = msh.Cells[ci].Lon
	}
	if err := f.SetData(latID, lat); err != nil {
		return 0, err
	}
	if err := f.SetData(lonID, lon); err != nil {
		return 0, err
	}
	if err := f.SetData(owID, ow); err != nil {
		return 0, err
	}
	return f.WriteFile(path)
}
