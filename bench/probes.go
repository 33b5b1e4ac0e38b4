package main

import (
	"bytes"
	"fmt"
	"image"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"

	"insituviz"
	"insituviz/internal/catalyst"
	"insituviz/internal/cinemacluster"
	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/eddy"
	"insituviz/internal/intransit"
	"insituviz/internal/livemodel"
	"insituviz/internal/mesh"
	"insituviz/internal/ncfile"
	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/pio"
	"insituviz/internal/provenance"
	"insituviz/internal/render"
	"insituviz/internal/vizpipe"
	"insituviz/internal/workpool"
)

// The probes are the per-layer half of the traced run: each calls one
// layer's exported functions, from outside, on inputs shaped like the
// workload's — its mesh, the solver state after captureSteps steps, the
// real Okubo-Weiss field, a frame the workload really committed. A layer
// the workload never executes is not probed and reports 0.

const (
	captureSteps = 48 // solver steps before the field is captured
	allocRuns    = 20
)

// firstErr keeps the first error a probe body hits; bodies run hundreds of
// times and report once.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (r *run) probeLive(lw *liveWorkload, cinemaDir string) {
	var fe firstErr
	defer func() {
		if fe.err != nil {
			r.fail(0, "probe: %v", fe.err)
		}
	}()
	v := r.values
	insitu := lw.mode == "insitu"

	var msh *mesh.Mesh
	v["mesh.build_ms"] = 1e3 * r.probe("mesh.build", nil, func() {
		var err error
		msh, err = mesh.NewIcosphere(lw.subdiv, mesh.EarthRadius)
		fe.note(err)
	})
	var part *partition.Partition
	v["partition.new_ms"] = 1e3 * r.probe("partition.new", nil, func() {
		var err error
		part, err = partition.New(msh, lw.ranks)
		fe.note(err)
	})
	if fe.err != nil {
		return
	}

	// Capture: the state after captureSteps steps and the fields derived
	// from it, exactly as the sampling path derives them.
	newModel := func(workers int) (*ocean.Model, *ocean.State, float64) {
		md, err := ocean.NewModel(msh, ocean.Config{Viscosity: 2e5, Workers: workers})
		fe.note(err)
		if err != nil {
			return nil, nil, 0
		}
		st, err := ocean.UnstableJet(md, ocean.DefaultGalewsky())
		fe.note(err)
		return md, st, md.SuggestedTimestep(10000)
	}
	model, state, dt := newModel(0)
	if fe.err != nil {
		return
	}
	for i := 0; i < captureSteps; i++ {
		fe.note(model.Step(state, dt))
	}
	diag := model.NewDiagnostics()
	field := make([]float64, msh.NCells())
	cellVort := make([]float64, msh.NCells())
	derive := func() {
		if insitu {
			fe.note(model.ComputeDiagnosticsInto(state, diag))
			model.OkuboWeissFrom(diag, field)
			model.CellVorticityFrom(diag, cellVort)
		} else {
			fe.note(model.OkuboWeissInto(state, field))
		}
	}
	v["ocean.diag_ms"] = 1e3 * r.probe("ocean.diag", nil, derive)

	// ocean and workpool: the step at the workload's mesh, through the
	// shared pool and single-threaded (the plain baseline).
	serialModel, serialState, _ := newModel(-1)
	if fe.err != nil {
		return
	}
	fe.note(serialState.CopyFrom(state))
	stepState := state.Clone() // stepping must not disturb the captured field's state
	par := r.probe("ocean.step", nil, func() { fe.note(model.Step(stepState, dt)) })
	ser := r.probe("ocean.step_serial", nil, func() { fe.note(serialModel.Step(serialState, dt)) })
	v["ocean.step_ms"], v["ocean.step_serial_ms"] = 1e3*par, 1e3*ser
	if par > 0 {
		v["ocean.step_speedup"] = ser / par
	}
	v["ocean.step_allocs"] = allocsPerCall(allocRuns, func() { fe.note(model.Step(stepState, dt)) })
	v["workpool.overhead_ns"] = float64(workpool.OverheadNs())
	chunks := 2 * int(workpool.Snapshot().Workers)
	v["workpool.run_us"] = 1e6 * r.probe("workpool.run", nil, func() {
		workpool.Run(msh.NCells(), chunks, func(lo, hi int) {})
	})

	// eddy: detection, spin census and tracking on the captured field.
	th := ocean.OkuboWeissThreshold(field)
	var eddies []eddy.Eddy
	v["eddy.detect_us"] = 1e6 * r.probe("eddy.detect", nil, func() {
		var err error
		eddies, err = eddy.Detect(msh, field, th, 2)
		fe.note(err)
		if insitu {
			for i := range eddies {
				_, err := eddy.ClassifySpin(msh, eddies[i], cellVort)
				fe.note(err)
			}
		}
	})
	v["eddy.count"] = float64(len(eddies))
	tracker, err := eddy.NewTracker(msh.Radius, 2e6)
	fe.note(err)
	if err != nil {
		return
	}
	simTime := 0.0
	v["eddy.track_us"] = 1e6 * r.probe("eddy.track", func() { simTime += dt }, func() {
		fe.note(tracker.Advance(simTime, eddies))
	})

	if insitu {
		adaptor, err := catalyst.NewAdaptor(1)
		fe.note(err)
		if err != nil {
			return
		}
		adaptor.SetReuse(true)
		fe.note(adaptor.AddPipeline(catalyst.PipelineFunc(func(*catalyst.FieldData) error { return nil })))
		step := 0
		v["catalyst.coprocess_us"] = 1e6 * r.probe("catalyst.coprocess", func() { step++ }, func() {
			_, err := adaptor.CoProcess(step, float64(step)*dt, "okubo_weiss", field)
			fe.note(err)
		})
	}

	// render: the rank-partitioned raster of one sample, the sort-last
	// composite, the ortho views and the PNG encode, at the workload's
	// image size.
	rast, err := render.NewRasterizer(msh, lw.width, lw.height)
	fe.note(err)
	if err != nil {
		return
	}
	masks := part.Masks()
	partials := make([]*image.RGBA, len(masks))
	for i := range partials {
		partials[i] = rast.NewFrame()
	}
	composited := rast.NewFrame()
	cm, norm := render.OkuboWeissMap(), render.SymmetricRange(field)
	raster := func() {
		for i, mask := range masks {
			fe.note(rast.RenderOwnedInto(partials[i], field, cm, norm, mask))
		}
	}
	composite := func() { fe.note(render.CompositeInto(composited, partials)) }
	v["render.raster_ms"] = 1e3 * r.probe("render.raster", nil, raster)
	v["render.composite_ms"] = 1e3 * r.probe("render.composite", nil, composite)
	// One sample's frame set: the composite, then the ortho views and the
	// eddy-core frame when the workload writes them.
	frames := []*image.RGBA{composited}
	if lw.ortho > 0 {
		sr, err := render.NewImageSetRenderer(msh, lw.height, lw.height, render.DefaultCameraSet()[:lw.ortho])
		fe.note(err)
		if err != nil {
			return
		}
		var views []*image.RGBA
		v["render.ortho_ms"] = 1e3 * r.probe("render.ortho", nil, func() {
			var err error
			views, err = sr.RenderFrames(field, cm, norm)
			fe.note(err)
		})
		frames = append(frames, views...)
	}
	if lw.cores {
		var sel *vizpipe.Dataset
		v["vizpipe.threshold_us"] = 1e6 * r.probe("vizpipe.threshold", nil, func() {
			ds, err := vizpipe.NewDataset(msh, simTime)
			fe.note(err)
			if err != nil {
				return
			}
			fe.note(ds.AddField("okubo_weiss", field))
			chain := &vizpipe.Pipeline{}
			fe.note(chain.Append(&vizpipe.Threshold{Field: "okubo_weiss", Min: math.Inf(-1), Max: th}))
			sel, err = chain.Execute(ds)
			fe.note(err)
		})
		if sel == nil {
			return
		}
		core := rast.NewFrame()
		fe.note(rast.RenderOwnedInto(core, field, cm, norm, sel.Mask))
		render.FillTransparent(core, render.Background)
		frames = append(frames, core)
	}
	var enc render.PNGEncoder
	var png []byte
	pngBytes := 0
	encode := func() {
		pngBytes = 0
		for _, img := range frames {
			var err error
			png, err = enc.Encode(img)
			fe.note(err)
			pngBytes += len(png)
		}
	}
	v["render.png_ms"] = 1e3 * r.probe("render.png", nil, encode)
	v["render.png_bytes"] = float64(pngBytes)
	v["render.frame_allocs"] = allocsPerCall(allocRuns, func() { raster(); composite(); encode() })

	// provenance and cinemastore, write side: a frame the workload really
	// committed goes through Put; Commit runs at the workload's entry count.
	frame := png
	if st, err := cinemastore.Open(cinemaDir); err == nil && st.Len() > 0 {
		if data, err := st.ReadFrameAt(0); err == nil {
			frame = data
		}
	}
	r.probeStoreWrite(&fe, frame, lw.samples()*lw.framesPerSample())

	if !insitu {
		// ncfile and pio: one raw dump of the captured field, as
		// runLivePost gathers, writes and reads it back.
		dec, err := pio.NewDecomposition(msh.NCells(), pioRanks)
		fe.note(err)
		if err != nil {
			return
		}
		plan, err := pio.NewPlan(dec, pioRanks/4)
		fe.note(err)
		if err != nil {
			return
		}
		gathered := field
		v["pio.gather_us"] = 1e6 * r.probe("pio.gather", nil, func() {
			parts, err := dec.Scatter(field)
			fe.note(err)
			if err == nil {
				gathered, _, err = plan.Gather(parts, 8)
				fe.note(err)
			}
		})
		var dump bytes.Buffer
		v["ncfile.encode_ms"] = 1e3 * r.probe("ncfile.encode", nil, func() {
			dump.Reset()
			f, err := okuboWeissDump(msh, simTime, gathered)
			fe.note(err)
			if err == nil {
				_, err = f.Encode(&dump)
				fe.note(err)
			}
		})
		v["ncfile.dump_bytes"] = float64(dump.Len())
		v["ncfile.decode_ms"] = 1e3 * r.probe("ncfile.decode", nil, func() {
			f, err := ncfile.Decode(dump.Bytes())
			fe.note(err)
			if err == nil {
				id, err := f.VarID("okuboWeiss")
				fe.note(err)
				_, err = f.Data(id)
				fe.note(err)
			}
		})
	}

	if lw.transitWkr > 0 {
		cells := make([][]int, len(masks))
		for i := range cells {
			cells[i], err = part.Cells(i)
			fe.note(err)
		}
		for _, p := range []struct{ codec, stem string }{{"flate", "send_sample"}, {"raw", "send_sample_raw"}} {
			v["intransit."+p.stem+"_ms"] = 1e3 * r.probeTransit(&fe, lw, msh, cells, field, p.codec, "intransit."+p.stem)
		}
	}

	if lw.guards {
		// Guards: layers no live command line reaches without -model, and
		// the paper-model reproduction whose error must stay under 0.5%.
		est := livemodel.New(livemodel.Config{Window: 256, Damping: 1e-9})
		ref := livemodel.NodeCostModel()
		obs := ref.Observation(dt, float64(len(frame)*lw.framesPerSample())/1e9, float64(lw.framesPerSample()), 0, 0)
		v["livemodel.observe_ns"] = 1e9 * r.probe("livemodel.observe", nil, func() { est.Observe(obs) })
		var study *insituviz.Study
		v["core.reproduce_study_ms"] = 1e3 * r.probe("core.reproduce_study", nil, func() {
			var err error
			study, err = insituviz.ReproduceStudy(insituviz.CaddyPlatform())
			fe.note(err)
		})
		if study != nil {
			v["core.model_max_err_pct"] = study.Validation.MaxAPE
			if study.Validation.MaxAPE >= 0.5 {
				r.fail(0, "paper model validation error %.3f%% is not below 0.5%% (Fig. 8)", study.Validation.MaxAPE)
			}
		}
	}
}

const pioRanks = 8 // LiveConfig's default IORanks, which liverun does not expose

// okuboWeissDump builds the netCDF file runLivePost writes per sample.
func okuboWeissDump(msh *mesh.Mesh, simTime float64, ow []float64) (*ncfile.File, error) {
	f := ncfile.New()
	cellDim, err := f.AddDimension("nCells", msh.NCells())
	if err != nil {
		return nil, err
	}
	if err := f.AddGlobalAttribute(ncfile.TextAttribute("title", "insituviz Okubo-Weiss dump")); err != nil {
		return nil, err
	}
	if err := f.AddGlobalAttribute(ncfile.NumericAttribute("sim_time_seconds", ncfile.Double, simTime)); err != nil {
		return nil, err
	}
	lat, lon := make([]float64, msh.NCells()), make([]float64, msh.NCells())
	for ci := range msh.Cells {
		lat[ci], lon[ci] = msh.Cells[ci].Lat, msh.Cells[ci].Lon
	}
	for _, vr := range []struct {
		name string
		data []float64
	}{{"latCell", lat}, {"lonCell", lon}, {"okuboWeiss", ow}} {
		id, err := f.AddVariable(vr.name, ncfile.Double, []int{cellDim})
		if err != nil {
			return nil, err
		}
		if err := f.SetData(id, vr.data); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// probeStoreWrite times the commit path the live workloads pay: SHA-256 of
// a frame, the Merkle fold, the fsync'd ledger append, Put, and Commit over
// `entries` entries.
func (r *run) probeStoreWrite(fe *firstErr, frame []byte, entries int) {
	v := r.values
	v["provenance.sha256_mb_per_s"] = r.probeSHA256(frame)
	leaves := make([]provenance.Digest, entries)
	for i := range leaves {
		leaves[i] = provenance.Sum([]byte(strconv.Itoa(i)))
	}
	v["provenance.merkle_us"] = 1e6 * r.probe("provenance.merkle", nil, func() { provenance.MerkleRoot(leaves) })

	ledgerDir := filepath.Join(r.dir, "probe-ledger")
	fe.note(os.MkdirAll(ledgerDir, 0o755))
	ledger, _, err := provenance.OpenLedger(ledgerDir)
	fe.note(err)
	if err != nil {
		return
	}
	n := 0
	v["provenance.ledger_sync_ms"] = 1e3 * r.probe("provenance.ledger_sync", func() { n++ }, func() {
		ledger.Append(leaves[n%len(leaves)], n, int64(n))
		fe.note(ledger.Sync())
	})

	w, err := cinemastore.Create(filepath.Join(r.dir, "probe-store"))
	fe.note(err)
	if err != nil {
		return
	}
	next := 0
	put := func() {
		_, err := w.Put(cinemastore.Key{Time: float64(next), Variable: "probe"}, frame)
		fe.note(err)
		next++
	}
	v["cinemastore.put_us"] = 1e6 * r.probe("cinemastore.put", nil, put)
	for next < entries {
		put()
	}
	// Every timed Commit covers one frame more than the last, as a real
	// one does; a repeated Commit of the same entries would skip the
	// ledger append.
	commit := func() {
		_, err := w.Commit()
		fe.note(err)
	}
	v["cinemastore.commit_ms"] = 1e3 * r.probe("cinemastore.commit", put, commit)
	v["cinemastore.commit_allocs"] = allocsPerCall(allocRuns, func() { put(); commit() }) -
		allocsPerCall(allocRuns, put)
}

// probeSHA256 returns the content-address rate over buf in MB/s.
func (r *run) probeSHA256(buf []byte) float64 {
	s := r.probe("provenance.sha256", nil, func() { provenance.Sum(buf) })
	if s == 0 {
		return 0
	}
	return float64(len(buf)) / s / 1e6
}

// probeTransit times Client.SendSample against an in-process worker on
// loopback: shard, encode, frame, render-and-store on the worker, ack.
func (r *run) probeTransit(fe *firstErr, lw *liveWorkload, msh *mesh.Mesh, cells [][]int, field []float64, codec, stem string) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	fe.note(err)
	if err != nil {
		return 0
	}
	worker, err := intransit.NewWorker(ln, intransit.WorkerConfig{OutDir: filepath.Join(r.dir, "probe-"+stem)})
	fe.note(err)
	if err != nil {
		ln.Close()
		return 0
	}
	served := make(chan error, 1)
	go func() { served <- worker.Serve() }()
	defer func() {
		worker.Close()
		fe.note(<-served)
	}()
	client, err := intransit.Dial(intransit.Options{
		Workers: []string{worker.Addr()},
		Codec:   codec,
		Config: intransit.RunConfig{
			MeshSubdivisions: lw.subdiv,
			ImageWidth:       lw.width,
			ImageHeight:      lw.height,
			RenderRanks:      lw.ranks,
			OrthoViews:       lw.ortho,
			EddyCoreImages:   lw.cores,
			Fields:           []string{"okubo_weiss"},
		},
		Mesh:  msh,
		Cells: cells,
	})
	fe.note(err)
	if err != nil {
		return 0
	}
	defer client.Close()
	simTime := 0.0
	return r.probe(stem, func() { simTime++ }, func() {
		_, err := client.SendSample(simTime, field)
		fe.note(err)
	})
}

func (r *run) probeServe(sw *serveWorkload, storeDir string) {
	var fe firstErr
	defer func() {
		if fe.err != nil {
			r.fail(0, "probe: %v", fe.err)
		}
	}()
	v := r.values

	var st *cinemastore.Store
	v["cinemastore.open_ms"] = 1e3 * r.probe("cinemastore.open", nil, func() {
		var err error
		st, err = cinemastore.Open(storeDir)
		fe.note(err)
	})
	if fe.err != nil {
		return
	}
	entries := st.Entries()
	i := 0
	v["cinemastore.read_verify_us"] = 1e6 * r.probe("cinemastore.read_verify", func() { i = (i + 1) % len(entries) }, func() {
		data, err := st.ReadFrame(entries[i])
		fe.note(err)
		if err == nil {
			fe.note(entries[i].VerifyFrame(data))
		}
	})
	frame, err := st.ReadFrameAt(0)
	fe.note(err)
	v["provenance.sha256_mb_per_s"] = r.probeSHA256(frame)

	// cinemaserve: a resident key through Server.Frame and through the
	// HTTP handler, and a key set 8x the cache budget so every call misses.
	nodeCache := sw.cacheBytes
	if sw.nodes > 0 {
		nodeCache = sw.nodeCache
	}
	hot := cinemaserve.NewServer(cinemaserve.Config{CacheBytes: nodeCache})
	fe.note(hot.Mount(storeName, st))
	key := entries[0].Key
	hit := func() {
		_, _, err := hot.Frame(storeName, key, false)
		fe.note(err)
	}
	v["cinemaserve.hit_ns"] = 1e9 * r.probe("cinemaserve.hit", nil, hit)
	v["cinemaserve.hit_allocs"] = allocsPerCall(allocRuns, hit)
	url := "/" + storeName + "/frame?var=" + key.Variable + "&time=" + strconv.FormatFloat(key.Time, 'g', -1, 64)
	handler := hot.Handler()
	v["cinemaserve.http_hit_us"] = 1e6 * r.probe("cinemaserve.http_hit", nil, func() {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, url, nil))
		if rw.Code != http.StatusOK {
			fe.note(fmt.Errorf("handler hit: status %d", rw.Code))
		}
	})
	const missFrames = 16
	cold := cinemaserve.NewServer(cinemaserve.Config{CacheBytes: missFrames * frameBytes})
	fe.note(cold.Mount(storeName, st))
	cycle := min(8*missFrames, len(entries))
	k := 0
	miss := func() {
		k = (k + 1) % cycle
		_, _, err := cold.Frame(storeName, entries[k].Key, false)
		fe.note(err)
	}
	v["cinemaserve.miss_us"] = 1e6 * r.probe("cinemaserve.miss", nil, miss)
	v["cinemaserve.miss_allocs"] = allocsPerCall(allocRuns, miss)

	if sw.nodes == 0 {
		return
	}
	// cinemacluster: the ring lookup, and a gateway memory-tier hit (the
	// first request fills the gateway cache from an in-process node).
	mux := http.NewServeMux()
	mux.Handle("/cinema/", http.StripPrefix("/cinema", hot.Handler()))
	node := httptest.NewServer(mux)
	defer node.Close()
	gw, err := cinemacluster.NewGateway(cinemacluster.Config{
		Peers: []string{node.URL}, Replicas: 1, CacheBytes: sw.cacheBytes,
	})
	fe.note(err)
	if err != nil {
		return
	}
	defer gw.Close()
	gwHandler := gw.Handler()
	v["cinemacluster.gateway_hit_us"] = 1e6 * r.probe("cinemacluster.gateway_hit", nil, func() {
		rw := httptest.NewRecorder()
		gwHandler.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, url, nil))
		if rw.Code != http.StatusOK {
			fe.note(fmt.Errorf("gateway hit: status %d", rw.Code))
		}
	})
	ring := cinemacluster.NewRing(0)
	for i := 0; i < sw.nodes; i++ {
		ring.Add("node" + strconv.Itoa(i))
	}
	owners := make([]string, 0, sw.replicas)
	hash := cinemacluster.HashKey(storeName, key)
	v["cinemacluster.ring_owners_ns"] = 1e9 * r.probe("cinemacluster.ring_owners", nil, func() {
		owners = ring.Owners(hash, sw.replicas, owners[:0])
	})
}
