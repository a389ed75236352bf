package serve_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// gate is a runner that blocks every job matching block until released,
// announcing each blocked job on started first; other jobs run at once.
type gate struct {
	block   func(sweep.JobSpec) bool
	started chan string
	release chan struct{}
	once    sync.Once
}

func newGate(block func(sweep.JobSpec) bool) *gate {
	return &gate{block: block, started: make(chan string, 8), release: make(chan struct{})}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func (g *gate) runner(ctx context.Context, spec sweep.JobSpec) (*telemetry.Report, error) {
	if g.block(spec) {
		g.started <- spec.Name()
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeRunner(0)(ctx, spec)
}

// awaitStarts waits for n blocked jobs to start.
func (g *gate) awaitStarts(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d blocked jobs started", i, n)
		}
	}
}

func pointGrid(scheme string, size int) *sweep.Grid {
	return &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{scheme}, Sizes: []int{size}}
}

// TestLocalSlotsNoHeadOfLineBlocking pins that a daemon's local slots run
// jobs independently: while job A blocks one slot, job B — submitted after
// A started — wakes the idle slot and completes.
func TestLocalSlotsNoHeadOfLineBlocking(t *testing.T) {
	g := newGate(func(s sweep.JobSpec) bool { return s.Scheme == "oracle" })
	d := startDaemonRunner(t, serve.Config{}, 2, g.runner)
	defer g.open()

	a := d.submit(t, "hol", pointGrid("oracle", 32))
	g.awaitStarts(t, 1)
	b := d.submit(t, "hol", pointGrid("dsre", 32))
	if fin := d.waitFinished(t, b.Sweep, 3*time.Second); fin.Done != 1 {
		t.Fatalf("job B: %+v", fin)
	}
	var av serve.SweepView
	d.get(t, "/v1/sweeps/"+a.Sweep, &av)
	if av.Finished {
		t.Fatal("job A finished while its runner was still blocked")
	}
	g.open()
	if fin := d.waitFinished(t, a.Sweep, 3*time.Second); fin.Done != 1 {
		t.Fatalf("job A: %+v", fin)
	}
}

// TestFleetWorkerSlotLanes pins that a fleet worker runs one slot per
// engine worker, each reporting its own index: two concurrent jobs ship
// chains for Worker 0 and 1, and the stitched trace draws two slot lanes.
func TestFleetWorkerSlotLanes(t *testing.T) {
	d := startDaemon(t, serve.Config{LeaseTTL: 5 * time.Second}, 0, 0)
	g := newGate(func(sweep.JobSpec) bool { return true })
	defer g.open()

	engObs := obs.NewSweepObsInto(obs.NewRegistry(), time.Now(), nil, obs.NewSpanLog())
	w, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: d.ts.URL, ID: "w1",
		Engine: sweep.New(sweep.Options{Workers: 2, Runner: g.runner, Obs: engObs}),
		Poll:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	v := d.submit(t, "lanes", &sweep.Grid{Workloads: []string{"vecsum"}, Schemes: []string{"dsre", "oracle"}, Sizes: []int{32}})
	g.awaitStarts(t, 2) // both jobs in flight at once
	g.open()
	d.waitFinished(t, v.Sweep, 5*time.Second)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	slots := map[int]bool{}
	for _, c := range d.spans.Jobs() {
		if c.Origin == "w1" {
			slots[c.Worker] = true
		}
	}
	if len(slots) != 2 || !slots[0] || !slots[1] {
		t.Errorf("shipped chains ran on slots %v, want 0 and 1", slots)
	}
	lanes := map[string]bool{}
	for _, e := range d.fetchStitched(t, v.Sweep) {
		if e["ph"] == "M" && e["name"] == "thread_name" && e["pid"].(float64) > 0 {
			lanes[e["args"].(map[string]any)["name"].(string)] = true
		}
	}
	if !lanes["slot 0"] || !lanes["slot 1"] || len(lanes) != 2 {
		t.Errorf("stitched worker lanes %v, want slot 0 and slot 1", lanes)
	}
}

// TestDaemonObserverStateBounded pins that a long-lived daemon keeps no
// per-call engine state: after many single-spec sweeps its engine
// progress lists no grids, the engine's job counter equals the daemon's
// execution count, and every engine gauge reads zero when idle.
func TestDaemonObserverStateBounded(t *testing.T) {
	d := startDaemon(t, serve.Config{}, 2, 0)
	const sweeps = 40
	for i := 0; i < sweeps; i++ {
		v := d.submit(t, "bounded", pointGrid("dsre", 100+i))
		d.waitFinished(t, v.Sweep, 5*time.Second)
	}

	p := d.progress(t)
	if p.Engine == nil {
		t.Fatal("progress: engine view missing on a local daemon")
	}
	if len(p.Engine.Grids) != 0 {
		t.Errorf("engine progress holds %d grid entries after %d sweeps, want 0", len(p.Engine.Grids), sweeps)
	}
	if len(p.Engine.Workers) != 2 {
		t.Errorf("engine progress lists %d slots, want 2", len(p.Engine.Workers))
	}
	m := scrapeMetrics(t, d)
	if p.Totals.Executions != sweeps || m["dsre_sweep_jobs_ok_total"] != float64(p.Totals.Executions) {
		t.Errorf("dsre_sweep_jobs_ok_total = %v, executions = %d, want both %d",
			m["dsre_sweep_jobs_ok_total"], p.Totals.Executions, sweeps)
	}
	for _, g := range []string{"dsre_sweep_jobs_queued", "dsre_sweep_jobs_running", "dsre_sweep_workers_busy"} {
		if m[g] != 0 {
			t.Errorf("%s = %v when idle, want 0", g, m[g])
		}
	}
}

// scrapeMetrics reads the daemon's unlabelled Prometheus samples.
func scrapeMetrics(t *testing.T, d *daemon) map[string]float64 {
	t.Helper()
	resp, err := d.ts.Client().Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatal(fmt.Errorf("metric %s: %w", name, err))
		}
		out[name] = f
	}
	return out
}

// TestDrainHardCancelRequeuesLocalJob pins drain past its window: the
// deadline cancels the job a local slot is running, the failed run goes
// back to the queue, and the drain reports it abandoned.
func TestDrainHardCancelRequeuesLocalJob(t *testing.T) {
	g := newGate(func(sweep.JobSpec) bool { return true }) // never opened
	d := startDaemonRunner(t, serve.Config{}, 1, g.runner)

	v := d.submit(t, "drain", pointGrid("dsre", 32))
	g.awaitStarts(t, 1)
	if abandoned := d.srv.Drain("test", 50*time.Millisecond); abandoned != 1 {
		t.Errorf("drain abandoned %d jobs, want the cancelled one", abandoned)
	}
	sv, _ := d.srv.Queue().View(v.Sweep, true)
	if sv.Finished || len(sv.Jobs) != 1 || sv.Jobs[0].State != serve.JobQueued.String() {
		t.Errorf("cancelled job after drain: %+v", sv)
	}
	if n := d.sink.count(obs.EventRequeue, nil); n != 1 {
		t.Errorf("requeue events = %d, want 1", n)
	}
}
