package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/sweep"
)

// WorkerOptions configures one fleet worker process.
type WorkerOptions struct {
	// BaseURL is the daemon ("http://host:port").
	BaseURL string
	// ID names this worker in leases, events and /progress.
	ID string
	// Engine executes leased specs (required; build it with Store nil —
	// results travel back through the complete upload, and the daemon owns
	// the store).  The worker runs one lease slot per engine worker
	// (Engine.Workers).  When its observer keeps a span log, the worker
	// takes each job's chains out of it after the run, stamps them with
	// the lease's propagated trace/span IDs, and ships them to the daemon
	// inside the complete upload.
	Engine *sweep.Engine
	// Poll is the idle sleep between empty lease polls (default 200ms).
	Poll time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client

	// OnLease, when set, runs after each lease grant and before execution.
	// Returning an error makes the worker abandon the lease and stop dead —
	// the crash-injection hook the lease-expiry tests use.
	OnLease func(hash string) error
}

// Worker pulls jobs from a dsre-serve daemon: lease, heartbeat at a third
// of the TTL while running, execute through its own engine, and upload the
// sealed result.  Several workers against one daemon form the fleet; work
// stealing falls out of the pull model (a fast worker simply leases more).
type Worker struct {
	o    WorkerOptions
	done atomic.Int64 // jobs completed (either status)
}

// NewWorker validates options and builds a worker.
func NewWorker(o WorkerOptions) (*Worker, error) {
	if o.BaseURL == "" {
		return nil, fmt.Errorf("serve: worker needs a BaseURL")
	}
	if o.Engine == nil {
		return nil, fmt.Errorf("serve: worker needs an Engine")
	}
	if o.ID == "" {
		return nil, fmt.Errorf("serve: worker needs an ID")
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	o.BaseURL = strings.TrimRight(o.BaseURL, "/")
	return &Worker{o: o}, nil
}

// Run pulls and executes jobs until ctx cancels (clean exit) or the
// crash-injection hook fires (its error propagates).  One slot per engine
// worker runs as a goroutine inside this call.
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	slots := w.o.Engine.Workers()
	errs := make(chan error, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs <- w.loop(ctx, slot)
		}(i)
	}
	wg.Wait()
	close(errs)
	//lint:ctxcheck — errs holds one buffered slot per goroutine and was closed above, so the drain cannot block
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// JobsDone reports how many leased jobs this worker finished (uploaded).
func (w *Worker) JobsDone() int64 { return w.done.Load() }

// loop is one lease-execute-upload slot.
func (w *Worker) loop(ctx context.Context, slot int) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, status, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// The daemon may be restarting or unreachable; poll again.
			if !sleepCtx(ctx, w.o.Poll) {
				return nil
			}
			continue
		}
		if status == http.StatusNoContent {
			if !sleepCtx(ctx, w.o.Poll) {
				return nil
			}
			continue
		}
		if w.o.OnLease != nil {
			if herr := w.o.OnLease(lease.Hash); herr != nil {
				// Simulated crash: abandon the lease (no upload, no
				// heartbeat) and die the way a killed process would.
				return herr
			}
		}
		w.execute(ctx, lease, slot)
	}
}

// execute runs one leased job as engine worker slot and uploads the
// outcome.  A worker already shutting down runs nothing and uploads
// nothing: the lease expires and the daemon requeues the job.
func (w *Worker) execute(ctx context.Context, lease *LeaseResponse, slot int) {
	if ctx.Err() != nil {
		return
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeats(ctx, lease, hbStop)
	}()

	r := w.o.Engine.Exec(ctx, lease.Spec, slot)
	close(hbStop)
	hbWG.Wait()

	req := CompleteRequest{
		Schema: CompleteSchema, Worker: w.o.ID, Lease: lease.Lease, Hash: lease.Hash,
		Status: r.Status, Error: r.Error, ElapsedMS: r.Elapsed,
	}
	// Ship the worker-side span chains for this job, stamped with the
	// lease's propagated trace context so the daemon can stitch them into
	// the sweep's cross-process trace.
	if spans := w.o.Engine.Obs().Spans(); spans != nil {
		chains := spans.TakeByHash(lease.Hash)
		for i := range chains {
			chains[i].Trace = lease.Trace
			chains[i].Span = lease.Span
			chains[i].Origin = w.o.ID
			chains[i].Attempt = lease.Attempt
		}
		req.Spans = chains
	}
	if r.Status == sweep.StatusOK {
		canon, err := lease.Spec.Canonical()
		if err != nil {
			canon = lease.Spec
		}
		rec := &sweep.Record{Hash: lease.Hash, Spec: canon, Report: r.Report}
		if err := rec.Seal(); err != nil {
			req.Status = sweep.StatusFailed
			req.Error = fmt.Sprintf("seal result: %v", err)
			req.Record = nil
		} else {
			req.Record = rec
		}
	}
	// Upload with bounded retries on a background context: a finished
	// result survives worker shutdown (graceful drain ships it).
	var resp CompleteResponse
	//lint:ctxcheck — bounded to 3 attempts; deliberately ignores ctx so a finished result survives graceful shutdown
	for attempt := 0; attempt < 3; attempt++ {
		code, err := w.postTraced(context.Background(), "/v1/fleet/complete", lease, &req, &resp)
		if err == nil && code/100 == 2 {
			w.done.Add(1)
			return
		}
		if err == nil {
			// A 4xx/409 will not improve on retry.
			return
		}
		time.Sleep(time.Duration(attempt+1) * 100 * time.Millisecond)
	}
}

// heartbeats extends the lease every TTL/3 until stopped.
func (w *Worker) heartbeats(ctx context.Context, lease *LeaseResponse, stop <-chan struct{}) {
	ttl := time.Duration(lease.TTLMS) * time.Millisecond
	period := ttl / 3
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			var resp HeartbeatResponse
			req := HeartbeatRequest{Schema: LeaseSchema, Worker: w.o.ID, Lease: lease.Lease}
			_, _ = w.postTraced(ctx, "/v1/fleet/heartbeat", lease, &req, &resp)
		case <-stop:
			return
		case <-ctx.Done():
			return
		}
	}
}

// lease polls the daemon for one job.  A 204 means no work (or draining).
func (w *Worker) lease(ctx context.Context) (*LeaseResponse, int, error) {
	var resp LeaseResponse
	req := LeaseRequest{Schema: LeaseSchema, Worker: w.o.ID}
	code, err := w.post(ctx, "/v1/fleet/lease", &req, &resp)
	if err != nil {
		return nil, 0, err
	}
	if code == http.StatusNoContent {
		return nil, code, nil
	}
	if code != http.StatusOK {
		return nil, code, fmt.Errorf("serve: lease: HTTP %d", code)
	}
	return &resp, code, nil
}

// DaemonHealth fetches the daemon's /healthz identity document (workers
// log it at join time to surface version skew before the first lease).
func (w *Worker) DaemonHealth(ctx context.Context) (*HealthView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.o.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.o.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var hv HealthView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hv); err != nil {
		return nil, fmt.Errorf("serve: healthz: %w", err)
	}
	return &hv, nil
}

// postTraced is post with the lease's trace context propagated as a
// traceparent header, tying fleet-protocol requests into the sweep's
// trace in the daemon's request logs.
func (w *Worker) postTraced(ctx context.Context, path string, lease *LeaseResponse, in, out any) (int, error) {
	var tc tracing.Context
	if t, err := tracing.ParseTraceID(lease.Trace); err == nil {
		tc.Trace = t
	}
	if sp, err := tracing.ParseSpanID(lease.Span); err == nil {
		tc.Span = sp
	}
	return w.postCtx(ctx, path, tc, in, out)
}

// post sends one JSON request and decodes a JSON response (when out is
// non-nil and the response has a body).
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	return w.postCtx(ctx, path, tracing.Context{}, in, out)
}

func (w *Worker) postCtx(ctx context.Context, path string, tc tracing.Context, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc.Valid() {
		tc.SetHeader(req.Header)
	}
	resp, err := w.o.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 && resp.StatusCode != http.StatusNoContent {
		if derr := json.NewDecoder(io.LimitReader(resp.Body, maxRecordBytes)).Decode(out); derr != nil {
			return resp.StatusCode, derr
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// sleepCtx sleeps d or until ctx cancels; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
