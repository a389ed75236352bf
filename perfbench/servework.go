package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

const serveWorkload = "serve-mixed"

// The serve-mixed traffic: serveClients clients, each on its own
// connection, keep sweepsInFlight sweeps of sweepSpecs points outstanding
// apiece.  Each outstanding sweep is polled every pollInterval, the
// dsre-load default, and the next sweep is submitted as soon as one is seen
// done.  With sweepsInFlight sweeps queued per client the engine still has
// work while a finished sweep waits for its poll, so throughput measures
// the daemon rather than the poll interval.  newPerSweep points of every
// sweep are new (a fresh data seed, so they are simulated and written to
// the store); the rest repeat earlier points, which exercises dedup and
// store reads.  The daemon completes about sweepsPerSecond sweeps a second
// on the reference host, so a run of --seconds S submits
// round(S*sweepsPerSecond) sweeps.
const (
	serveClients    = 2
	sweepsInFlight  = 3
	serveWorkers    = 2
	sweepSpecs      = 48
	newPerSweep     = 6
	basePoolSize    = 48
	sweepsPerSecond = 17.0
	serveSetupReps  = 3
	pollInterval    = 100 * time.Millisecond
	// sweepTimeout fails a sweep that never finishes, so a wedged daemon
	// ends the run instead of hanging it.
	sweepTimeout = 60 * time.Second
)

// Points are drawn from these kernels, schemes and sizes in a fixed
// rotation; only the data seeds come from the workload seed, so every seed
// sends the same mix.
var (
	serveKernels = []string{"vecsum", "histogram", "bank", "stencil", "listsum", "hashmap", "dotprod", "spmv"}
	serveSchemes = []string{"dsre", "storeset+flush"}
	serveSizes   = []int{64, 128, 256}
)

// pointSeed derives the data seed of the i-th generated point from the
// workload seed (splitmix64; never zero, which means "default").
func pointSeed(seed int64, i int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x | 1
}

// point is the i-th generated simulation point of a run.
func point(seed int64, i int) sweep.JobSpec {
	return sweep.JobSpec{
		Workload: serveKernels[i%len(serveKernels)],
		Size:     serveSizes[(i/len(serveKernels))%len(serveSizes)],
		Scheme:   serveSchemes[(i/(len(serveKernels)*len(serveSizes)))%len(serveSchemes)],
		Seed:     pointSeed(seed, i),
	}
}

// serveGrid is the deterministic traffic of one run: the base pool the
// set-up writes to the store, and the sweeps of the measured phase.
type serveGrid struct {
	Base   []sweep.JobSpec
	Sweeps [][]sweep.JobSpec
}

// makeServeGrid generates n sweeps from seed.  Points 0..basePoolSize-1
// form the base pool; sweep k adds newPerSweep fresh points and repeats
// sweepSpecs-newPerSweep distinct earlier points (base pool or earlier
// sweeps' new points), in a shuffled order.
func makeServeGrid(seed int64, n int) serveGrid {
	g := serveGrid{}
	for i := 0; i < basePoolSize; i++ {
		g.Base = append(g.Base, point(seed, i))
	}
	next := basePoolSize
	for k := 0; k < n; k++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		specs := make([]sweep.JobSpec, 0, sweepSpecs)
		for _, i := range rng.Perm(next)[:sweepSpecs-newPerSweep] {
			specs = append(specs, point(seed, i))
		}
		for i := 0; i < newPerSweep; i++ {
			specs = append(specs, point(seed, next+i))
		}
		next += newPerSweep
		rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
		g.Sweeps = append(g.Sweeps, specs)
	}
	return g
}

// timedStore wraps the store handed to the server and the engine, timing
// every Get and Put and remembering what was written.  It forwards
// SetOnCorrupt, so the engine sees the same store capabilities as with
// the bare DirStore.
type timedStore struct {
	inner *sweep.DirStore
	tr    *tracer

	mu      sync.Mutex
	getMS   []float64
	putMS   []float64
	hits    int
	written map[string]int               // hash → Puts
	reports map[string]*telemetry.Report // hash → first report written
}

func newTimedStore(inner *sweep.DirStore, tr *tracer) *timedStore {
	s := &timedStore{inner: inner, tr: tr}
	s.reset()
	return s
}

func (s *timedStore) Get(hash string) (*sweep.Record, error) {
	t0 := time.Now()
	rec, err := s.inner.Get(hash)
	t1 := time.Now()
	s.tr.add(span{Lane: laneStore, Name: "store.get", Start: t0, End: t1})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.getMS = append(s.getMS, ms(t1.Sub(t0)))
	if err == nil && rec != nil {
		s.hits++
	}
	return rec, err
}

func (s *timedStore) Put(rec *sweep.Record) error {
	t0 := time.Now()
	err := s.inner.Put(rec)
	t1 := time.Now()
	s.tr.add(span{Lane: laneStore, Name: "store.put", Start: t0, End: t1, Job: rec.Spec.Name()})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putMS = append(s.putMS, ms(t1.Sub(t0)))
	s.written[rec.Hash]++
	if s.reports[rec.Hash] == nil {
		s.reports[rec.Hash] = rec.Report
	}
	return err
}

func (s *timedStore) SetOnCorrupt(fn func(hash, detail string)) { s.inner.SetOnCorrupt(fn) }

// reset forgets the timings and writes so far (the set-up's).
func (s *timedStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.getMS, s.putMS, s.hits = nil, nil, 0
	s.written = map[string]int{}
	s.reports = map[string]*telemetry.Report{}
}

// stored returns a copy of the reports written so far, by hash.
func (s *timedStore) stored() map[string]*telemetry.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	reports := make(map[string]*telemetry.Report, len(s.reports))
	for h, rep := range s.reports {
		reports[h] = rep
	}
	return reports
}

// jobs returns the work counts of the stored reports, in hash order.
func (s *timedStore) jobs() []jobCounts {
	reports := s.stored()
	hashes := make([]string, 0, len(reports))
	for h := range reports {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	var jobs []jobCounts
	for _, h := range hashes {
		if rep := reports[h]; rep != nil {
			jobs = append(jobs, jobCounts{Stats: rep.Stats, Insts: rep.Insts})
		}
	}
	return jobs
}

// Trace lanes of serve-mixed: one per outstanding-sweep slot of each
// client, and one for the store.
const (
	laneClient = 1 // + slot index
	laneStore  = 20
)

// daemon is one in-process dsre-serve: server core, local engine and
// loopback HTTP listener.
type daemon struct {
	srv     *serve.Server
	engine  *sweep.Engine
	store   *timedStore
	http    *http.Server
	url     string
	served  chan error
	readyMS float64
}

// startDaemon starts a daemon on a fresh store in dir and returns once
// /healthz answers ok.
func startDaemon(ctx context.Context, dir string, tr *tracer) (*daemon, error) {
	t0 := time.Now()
	ds, err := sweep.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	store := newTimedStore(ds, tr)
	reg := obs.NewRegistry()
	spans := obs.NewSpanLog()
	engObs := obs.NewSweepObsInto(reg, t0, nil, spans)
	srvObs := obs.NewServeObs(reg, t0, nil, spans, serveWorkers)
	engine := sweep.New(sweep.Options{Workers: serveWorkers, Store: store, Obs: engObs})
	srv, err := serve.New(serve.Config{Store: store, Obs: srvObs, Engine: engine, EngineObs: engObs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	d := &daemon{
		srv: srv, engine: engine, store: store,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	c := newClient(d.url)
	defer c.http.CloseIdleConnections()
	for {
		var h serve.HealthView
		if err := c.getJSON(ctx, "/healthz", &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	d.readyMS = ms(time.Since(t0))
	return d, nil
}

// stop drains the daemon and waits for its HTTP server to exit.
func (d *daemon) stop() {
	d.srv.Drain("benchmark done", 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // an unclean shutdown after the drain loses nothing we measure
	<-d.served
}

// client is one closed-loop user with its own connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) submit(ctx context.Context, specs []sweep.JobSpec) (*serve.SweepView, error) {
	body, err := json.Marshal(serve.SubmitRequest{Schema: serve.SubmitSchema, Specs: specs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var v serve.SweepView
	return &v, json.NewDecoder(resp.Body).Decode(&v)
}

// sweepOutcome is one completed sweep as a client saw it.
type sweepOutcome struct {
	Latency  time.Duration // submit sent → done observed by a poll
	ServerMS float64       // submit accepted → finished, as the daemon recorded it
	SubmitMS float64
	PollMS   []float64
	View     serve.SweepView
	Err      error
}

// runSweep submits specs and polls until the sweep finishes.
func (c *client) runSweep(ctx context.Context, specs []sweep.JobSpec, tr *tracer, lane int) sweepOutcome {
	var out sweepOutcome
	id := tr.newID()
	t0 := time.Now()
	v, err := c.submit(ctx, specs)
	t1 := time.Now()
	out.SubmitMS = ms(t1.Sub(t0))
	tr.add(span{Parent: id, Lane: lane, Name: "http.submit", Start: t0, End: t1})
	if err != nil {
		out.Err = err
		return out
	}
	for !v.Finished {
		if time.Since(t0) > sweepTimeout {
			out.Err = fmt.Errorf("sweep %s not finished after %s", v.Sweep, sweepTimeout)
			return out
		}
		time.Sleep(pollInterval)
		p0 := time.Now()
		var nv serve.SweepView
		if err := c.getJSON(ctx, "/v1/sweeps/"+v.Sweep, &nv); err != nil {
			out.Err = err
			return out
		}
		p1 := time.Now()
		out.PollMS = append(out.PollMS, ms(p1.Sub(p0)))
		tr.add(span{Parent: id, Lane: lane, Name: "http.poll", Start: p0, End: p1})
		v = &nv
	}
	out.Latency = time.Since(t0)
	out.View = *v
	tr.add(span{ID: id, Lane: lane, Name: "sweep", Start: t0, End: time.Now(), Job: v.Sweep})
	return out
}

// drive runs sweeps from serveClients clients, each with sweepsInFlight
// sweeps outstanding: every slot takes the next sweep once its previous
// one is seen done.  The slots of one client share its connection.  It
// then reads each sweep's submit-to-finish time from the daemon's
// /progress document.
func drive(ctx context.Context, url string, sweeps [][]sweep.JobSpec, tr *tracer) ([]sweepOutcome, error) {
	out := make([]sweepOutcome, len(sweeps))
	clients := make([]*client, serveClients)
	for ci := range clients {
		clients[ci] = newClient(url)
		defer clients[ci].http.CloseIdleConnections()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < serveClients*sweepsInFlight; slot++ {
		c := clients[slot%serveClients]
		lane := laneClient + slot
		tr.lane(lane, fmt.Sprintf("client %d, slot %d", slot%serveClients, slot/serveClients))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(sweeps) || ctx.Err() != nil {
					return
				}
				out[k] = c.runSweep(ctx, sweeps[k], tr, lane)
			}
		}()
	}
	wg.Wait()

	var prog obs.ServeProgressView
	if err := clients[0].getJSON(ctx, "/progress", &prog); err != nil {
		return out, err
	}
	elapsed := map[string]int64{}
	for _, sv := range prog.Sweeps {
		if sv.Finished {
			elapsed[sv.Sweep] = sv.ElapsedMS
		}
	}
	for k := range out {
		if ems, ok := elapsed[out[k].View.Sweep]; ok {
			out[k].ServerMS = float64(ems)
		}
	}
	return out, nil
}

// servePhase is what one set-up plus measured phase observed.
type servePhase struct {
	SetupS   []float64
	ReadyMS  []float64
	Wall     time.Duration
	Outcomes []sweepOutcome
	AllocMB  float64
	Cycles   int64
	SimWall  time.Duration
	Store    *timedStore
	Unique   int
	Specs    int
}

// runServePhase sets up serveSetupReps daemons on fresh stores (each warmed
// with the base pool), keeps the last, and drives the grid's sweeps
// through it.
func runServePhase(ctx context.Context, g serveGrid, dir string, tr *tracer) (servePhase, error) {
	var ph servePhase
	var d *daemon
	for r := 0; r < serveSetupReps; r++ {
		if d != nil {
			d.stop()
		}
		storeDir := fmt.Sprintf("%s/store%d", dir, r)
		if err := os.RemoveAll(storeDir); err != nil {
			return ph, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = startDaemon(ctx, storeDir, tr)
		if err != nil {
			return ph, err
		}
		warm, err := drive(ctx, d.url, [][]sweep.JobSpec{g.Base}, nil)
		if err == nil {
			err = checkSweep(warm[0], len(g.Base))
		}
		if err != nil {
			d.stop()
			return ph, fmt.Errorf("base pool: %w", err)
		}
		ph.SetupS = append(ph.SetupS, time.Since(t0).Seconds())
		ph.ReadyMS = append(ph.ReadyMS, d.readyMS)
	}
	defer d.stop()
	d.store.reset()

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cycles0, wall0 := d.engine.Tally()
	t0 := time.Now()
	outcomes, err := drive(ctx, d.url, g.Sweeps, tr)
	ph.Wall = time.Since(t0)
	if err != nil {
		return ph, err
	}
	cycles1, wall1 := d.engine.Tally()
	runtime.ReadMemStats(&ms1)
	ph.Outcomes = outcomes
	ph.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	ph.Cycles, ph.SimWall = cycles1-cycles0, wall1-wall0
	ph.Store = d.store
	for _, o := range ph.Outcomes {
		ph.Unique += o.View.Unique
		ph.Specs += o.View.Total
	}
	return ph, nil
}

// checkSweep is the per-sweep invariant: the submit was accepted and every
// submitted copy completed ok.
func checkSweep(o sweepOutcome, specs int) error {
	switch {
	case o.Err != nil:
		return o.Err
	case !o.View.Finished:
		return fmt.Errorf("sweep %s never finished", o.View.Sweep)
	case o.View.Failed > 0:
		return fmt.Errorf("sweep %s: %d of %d copies failed", o.View.Sweep, o.View.Failed, o.View.Total)
	case o.View.Total != specs || o.View.Done != specs:
		return fmt.Errorf("sweep %s: %d of %d copies done, want %d", o.View.Sweep, o.View.Done, o.View.Total, specs)
	case o.ServerMS <= 0:
		return fmt.Errorf("sweep %s: no finish time in the daemon's /progress", o.View.Sweep)
	}
	return nil
}

// checkPhase checks the whole-run invariants: no sweep lost or failed, and
// every new point executed exactly once — the unique jobs the daemon
// enqueued, the records written to the store and the new points the grid
// holds all agree, no record was written twice, and the cycles the engine
// simulated equal the cycles of the stored records (a job run twice but
// stored once would make them differ).
func checkPhase(g serveGrid, ph servePhase) (failed int, err error) {
	var errs []error
	for k, o := range ph.Outcomes {
		if e := checkSweep(o, len(g.Sweeps[k])); e != nil {
			failed++
			errs = append(errs, e)
		}
	}
	want := len(g.Sweeps) * newPerSweep
	st := ph.Store
	st.mu.Lock()
	defer st.mu.Unlock()
	for hash, n := range st.written {
		if n != 1 {
			failed++
			errs = append(errs, fmt.Errorf("job %s executed %d times", hash[:12], n))
		}
	}
	if ph.Unique != want || len(st.written) != want {
		failed++
		errs = append(errs, fmt.Errorf("%d new points, daemon enqueued %d unique jobs, store received %d records", want, ph.Unique, len(st.written)))
	}
	var stored int64
	for _, rep := range st.reports {
		if rep == nil || rep.Cycles <= 0 {
			failed++
			errs = append(errs, fmt.Errorf("store received an empty report"))
			break
		}
		stored += rep.Cycles
	}
	if stored != ph.Cycles {
		failed++
		errs = append(errs, fmt.Errorf("engine simulated %d cycles, stored records hold %d", ph.Cycles, stored))
	}
	return failed, errors.Join(errs...)
}

// sameRecords checks that two phases over one grid stored the same
// simulated results: the same hashes, and per hash the same cycles,
// instructions and sim.Stats digest.
func sameRecords(plain, traced *timedStore) error {
	a, b := plain.stored(), traced.stored()
	if len(a) != len(b) {
		return fmt.Errorf("untraced pass stored %d records, traced pass %d", len(a), len(b))
	}
	for hash, ra := range a {
		rb := b[hash]
		if rb == nil {
			return fmt.Errorf("job %s stored by the untraced pass only", hash[:12])
		}
		da, err := statsDigest(&ra.Stats)
		if err != nil {
			return err
		}
		db, err := statsDigest(&rb.Stats)
		if err != nil {
			return err
		}
		if ra.Cycles != rb.Cycles || ra.Insts != rb.Insts || da != db {
			return fmt.Errorf("job %s: untraced %d cycles, %d insts, stats %s; traced %d cycles, %d insts, stats %s",
				hash[:12], ra.Cycles, ra.Insts, da[:12], rb.Cycles, rb.Insts, db[:12])
		}
	}
	return nil
}

// runServe measures serve-mixed.  Untraced, it reports the end-to-end
// metrics of round(seconds*sweepsPerSecond) sweeps.  Traced, it drives
// half as many sweeps untraced and then the same sweeps again on a fresh
// daemon with spans on, and checks that both passes stored the same
// results.  The simulator's own layers (the sim.* spans and the cpu.*
// profile split) are measured on the simulator workloads, not here.
func runServe(ctx context.Context, seed int64, seconds int, traced bool, m *metrics, dir, traceOut string) outcome {
	defer os.RemoveAll(dir)
	n := max(int(float64(seconds)*sweepsPerSecond+0.5), 2*tailBeyond)
	var run outcome
	if !traced {
		g := makeServeGrid(seed, n)
		ph, err := runServePhase(ctx, g, dir, nil)
		if err != nil {
			return run.fail(err)
		}
		run.Attempted = len(g.Sweeps) + ph.Unique
		run.Failed, run.Err = checkPhase(g, ph)
		if run.Err != nil {
			return run
		}
		rss, err := peakRSSMB()
		if err != nil {
			return run.fail(err)
		}
		m.set("setup_s", median(ph.SetupS))
		m.note("setup_s", "start to healthy to base pool of %d points stored, median of %d", basePoolSize, serveSetupReps)
		m.set("alloc_mb", ph.AllocMB)
		m.note("alloc_mb", "Go heap allocated over %d sweeps", n)
		m.set("peak_rss_mb", rss)
		return run.fail(setServeEndToEnd(m, ph, run))
	}

	g := makeServeGrid(seed, max(n/2, 2*tailBeyond))
	plain, err := runServePhase(ctx, g, dir+"/plain", nil)
	if err != nil {
		return run.fail(err)
	}
	run.Attempted = len(g.Sweeps) + plain.Unique
	if run.Failed, run.Err = checkPhase(g, plain); run.Err != nil {
		return run
	}
	tr := newTracer()
	tr.lane(laneStore, "store")
	ph, err := runServePhase(ctx, g, dir+"/traced", tr)
	if err != nil {
		return run.fail(err)
	}
	run.Attempted += len(g.Sweeps) + ph.Unique
	failed, err := checkPhase(g, ph)
	if err == nil {
		if err = sameRecords(plain.Store, ph.Store); err != nil {
			failed++
		}
	}
	run.Failed += failed
	if run.Err = err; err != nil {
		return run
	}

	setSimLayersIdle(m)
	setWorkCounts(m, ph.Store.jobs())
	setOverhead(m, plain.Wall, ph.Wall, fmt.Sprintf("%d sweeps", len(g.Sweeps)))

	m.set("serve.ready_ms", median(ph.ReadyMS))
	m.note("serve.ready_ms", "start to healthy, median of %d", len(ph.ReadyMS))
	m.set("serve.specs", float64(ph.Specs))
	m.set("engine.executions", float64(ph.Unique))
	m.set("serve.dedup_ratio", ratio(float64(ph.Unique), float64(ph.Specs)))
	m.note("serve.dedup_ratio", "%d executions of %d submitted specs", ph.Unique, ph.Specs)
	m.set("engine.sim_s", ph.SimWall.Seconds())
	m.note("engine.sim_s", "Engine.Tally delta (%d cycles)", ph.Cycles)
	st := ph.Store
	st.mu.Lock()
	defer st.mu.Unlock()
	m.set("store.gets", float64(len(st.getMS)))
	m.set("store.get_ms", median(st.getMS))
	m.note("store.get_ms", "p50 of %d", len(st.getMS))
	m.set("store.puts", float64(len(st.putMS)))
	m.set("store.put_ms", median(st.putMS))
	m.note("store.put_ms", "p50 of %d", len(st.putMS))
	m.set("store.hit_ratio", ratio(float64(st.hits), float64(len(st.getMS))))
	m.note("store.hit_ratio", "%d hits of %d gets", st.hits, len(st.getMS))
	var submits, polls []float64
	for _, o := range ph.Outcomes {
		submits = append(submits, o.SubmitMS)
		polls = append(polls, o.PollMS...)
	}
	m.set("http.submit_ms", median(submits))
	m.note("http.submit_ms", "p50 of %d", len(submits))
	m.set("http.poll_ms", median(polls))
	m.note("http.poll_ms", "p50 of %d", len(polls))
	m.set("http.polls_per_sweep", ratio(float64(len(polls)), float64(len(ph.Outcomes))))
	m.note("http.polls_per_sweep", "one poll per %s per outstanding sweep", pollInterval)
	if err := tr.write(traceOut); err != nil {
		return run.fail(err)
	}
	return run
}

// setServeEndToEnd reports serve-mixed's latency and throughput, and the
// simulator throughput of the jobs the engine executed.  Latency is the
// daemon's own submit-to-finish record: a client polling every
// pollInterval sees it rounded up to the next poll, which the notes give
// for comparison.
func setServeEndToEnd(m *metrics, ph servePhase, run outcome) error {
	var lat, seen []float64
	for _, o := range ph.Outcomes {
		lat = append(lat, o.ServerMS)
		seen = append(seen, ms(o.Latency))
	}
	s, err := summarize(lat)
	if err != nil {
		return fmt.Errorf("sweep latency: %w", err)
	}
	m.set("submit_done_p50_ms", s.P50)
	m.note("submit_done_p50_ms", "per sweep from the daemon's /progress, %d samples; client saw p50 %.1f ms polling every %s", s.N, median(seen), pollInterval)
	m.set("submit_done_tail_ms", s.Tail)
	m.note("submit_done_tail_ms", "p%.1f per sweep, rank %d of %d samples", s.TailPct, s.TailRank, s.N)
	m.set("sweeps_per_s", float64(len(ph.Outcomes))/ph.Wall.Seconds())
	m.note("sweeps_per_s", "%d sweeps from %d clients with %d sweeps outstanding each", len(ph.Outcomes), serveClients, sweepsInFlight)

	st := ph.Store
	st.mu.Lock()
	defer st.mu.Unlock()
	var insts int64
	var ipc []float64
	for _, rep := range st.reports {
		insts += rep.Insts
		ipc = append(ipc, rep.IPC)
	}
	sort.Float64s(ipc)
	m.set("sim_mcycles_per_s", float64(ph.Cycles)/ph.SimWall.Seconds()/1e6)
	m.note("sim_mcycles_per_s", "Engine.Tally over %d executed jobs", len(st.reports))
	m.set("sim_minsts_per_s", float64(insts)/ph.SimWall.Seconds()/1e6)
	m.set("ipc", geomean(ipc))
	m.note("ipc", "geometric mean over %d executed jobs", len(ipc))
	m.set("success_rate", ratio(float64(run.Attempted-run.Failed), float64(run.Attempted)))
	m.note("success_rate", "%d of %d sweeps and jobs ok", run.Attempted-run.Failed, run.Attempted)
	return nil
}
