package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/sweep"
)

// job is one unique simulation point in the queue, content-addressed by
// its spec hash.  Every submitted spec copy with the same hash shares this
// one job — the service-level form of the engine's in-sweep dedup.
type job struct {
	spec sweep.JobSpec // canonical spelling
	hash string
	name string

	state    JobState
	attempts int    // lease grants so far
	leaseID  string // current lease when leased
	peer     string // holder of the current lease
	expiry   time.Time
	noExpiry bool // local leases never expire (a local slot can't crash apart from the queue)

	trace tracing.TraceID // trace of the sweep that enqueued the job
	span  tracing.SpanID  // span of the current lease attempt

	enqueuedNS int64 // obs-relative enqueue stamp (queue-wait span anchor)
	result     *sweep.JobResult
	sweeps     []*sweepRun // submissions referencing this job
}

// sweepRun is one accepted submission: the specs in order, the hash each
// resolved to, and how many unique jobs are still open.
type sweepRun struct {
	id        string
	tenant    string
	trace     tracing.TraceID
	specs     []sweep.JobSpec
	hashes    []string
	copies    map[string]int
	open      int // unique non-terminal jobs
	uniqueNew int // unique jobs this submit enqueued
}

// LeasedJob is one lease grant handed to a worker (or to a local slot).
// Trace/Span are the attempt's trace-context IDs.
type LeasedJob struct {
	Lease   string
	Hash    string
	Name    string
	Spec    sweep.JobSpec
	Attempt int
	Trace   tracing.TraceID
	Span    tracing.SpanID
}

// Errors the HTTP layer maps onto status codes.
var (
	// ErrLeaseGone rejects heartbeats for leases that expired or closed.
	ErrLeaseGone = fmt.Errorf("serve: lease expired or unknown")
	// ErrUnknownJob rejects completions for hashes the queue never saw.
	ErrUnknownJob = fmt.Errorf("serve: unknown job")
)

// Queue is the daemon's job table: unique jobs keyed by content hash, a
// FIFO of queued work, outstanding leases, and the submissions that
// reference them.  All observability flows through the injected ServeObs,
// always called while holding the queue lock (obs takes its own lock
// second and never calls back, so the order is acyclic).
type Queue struct {
	obs         *obs.ServeObs
	leaseTTL    time.Duration
	maxAttempts int
	minter      *tracing.Minter

	mu       sync.Mutex
	jobs     map[string]*job
	fifo     []*job // queued jobs in arrival order (stale entries skipped)
	queued   int
	leases   map[string]*job
	sweeps   map[string]*sweepRun
	order    []string // sweep submission order
	sweepSeq int
	leaseSeq int
	closed   bool // local slots stop leasing (drain)

	ready *sync.Cond // on mu: signalled once per job entering the fifo
}

// NewQueue builds a queue.  o is required; leaseTTL bounds fleet-lease
// heartbeat gaps; maxAttempts bounds lease grants per job; minter mints
// trace/span IDs (nil gets a zero-seeded minter — fine for tests, daemons
// should seed from their start instant so fleets stay collision-free).
func NewQueue(o *obs.ServeObs, leaseTTL time.Duration, maxAttempts int, minter *tracing.Minter) *Queue {
	if leaseTTL <= 0 {
		leaseTTL = 10 * time.Second
	}
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	if minter == nil {
		minter = tracing.NewMinter(0)
	}
	q := &Queue{
		obs:         o,
		leaseTTL:    leaseTTL,
		maxAttempts: maxAttempts,
		minter:      minter,
		jobs:        map[string]*job{},
		leases:      map[string]*job{},
		sweeps:      map[string]*sweepRun{},
	}
	q.ready = sync.NewCond(&q.mu)
	return q
}

func (q *Queue) lock()   { q.mu.Lock() }
func (q *Queue) unlock() { q.mu.Unlock() }

// enqueueLocked appends j to the fifo and wakes one idle local slot: each
// queued job wakes its own slot, so no idle slot sleeps past queued work.
func (q *Queue) enqueueLocked(j *job, now time.Time) {
	j.state = JobQueued
	j.enqueuedNS = q.obs.Rel(now)
	q.fifo = append(q.fifo, j)
	q.queued++
	q.ready.Signal()
}

// Submit registers one sweep: specs with their precomputed content hashes
// (the server canonicalises, validates and hashes before locking), and
// hits marking hashes the store already holds.  It returns the assigned
// sweep ID.  Specs whose hash matches an existing job attach to it; store
// hits materialise as already-done jobs; the rest enqueue.
func (q *Queue) Submit(tenant string, specs []sweep.JobSpec, hashes []string, hits map[string]bool, trace tracing.TraceID, now time.Time) string {
	q.lock()
	defer q.unlock()

	if trace.IsZero() {
		trace = q.minter.NextTrace()
	}
	q.sweepSeq++
	s := &sweepRun{
		id:     fmt.Sprintf("s-%04d", q.sweepSeq),
		tenant: tenant,
		trace:  trace,
		specs:  specs,
		hashes: hashes,
		copies: map[string]int{},
	}
	for _, h := range hashes {
		s.copies[h]++
	}

	uniqueNew, cachedNow, failedNow := 0, 0, 0
	seen := map[string]bool{}
	for i, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		copies := s.copies[h]
		j, ok := q.jobs[h]
		if !ok {
			j = &job{spec: specs[i], hash: h, name: specs[i].Name(), trace: trace}
			q.jobs[h] = j
			if hits[h] {
				j.state = JobDone
				j.result = &sweep.JobResult{
					Spec: j.spec, Hash: h, Status: sweep.StatusOK, CacheHit: true,
				}
			} else {
				q.enqueueLocked(j, now)
				uniqueNew++
				q.obs.JobQueued()
			}
		}
		j.sweeps = append(j.sweeps, s)
		if j.state.Terminal() {
			if j.state == JobDone {
				cachedNow += copies
			} else {
				failedNow += copies
			}
		} else {
			s.open++
		}
	}
	s.uniqueNew = uniqueNew
	q.sweeps[s.id] = s
	q.order = append(q.order, s.id)

	q.obs.SweepSubmitted(s.id, tenant, trace.String(), len(specs), uniqueNew, cachedNow, now)
	if failedNow > 0 || s.open == 0 {
		q.obs.SweepProgress(s.id, 0, 0, failedNow, s.open == 0, now)
	}
	return s.id
}

// Lease grants the oldest queued job to peer.  Fleet leases expire after
// the queue's TTL unless heartbeated; local leases (noExpiry) never do.
func (q *Queue) Lease(peer string, noExpiry bool, now time.Time) (LeasedJob, bool) {
	q.lock()
	defer q.unlock()
	return q.leaseLocked(peer, noExpiry, now)
}

// LeaseLocal blocks until a job is queued and grants it to a local slot
// under a lease that never expires, stamped with now() at the grant.  It
// returns false once StopLocal has been called.
func (q *Queue) LeaseLocal(now func() time.Time) (LeasedJob, bool) {
	q.lock()
	defer q.unlock()
	// Terminates: StopLocal sets closed and broadcasts.
	for !q.closed {
		if lj, ok := q.leaseLocked("local", true, now()); ok {
			return lj, true
		}
		q.ready.Wait()
	}
	return LeasedJob{}, false
}

// StopLocal makes every LeaseLocal caller, waiting or future, return
// false (the drain path).
func (q *Queue) StopLocal() {
	q.lock()
	defer q.unlock()
	q.closed = true
	q.ready.Broadcast()
}

func (q *Queue) leaseLocked(peer string, noExpiry bool, now time.Time) (LeasedJob, bool) {
	var j *job
	for len(q.fifo) > 0 {
		head := q.fifo[0]
		q.fifo = q.fifo[1:]
		if head.state == JobQueued {
			j = head
			break
		}
	}
	if j == nil {
		return LeasedJob{}, false
	}
	q.queued--
	j.state = JobLeased
	j.attempts++
	j.peer = peer
	j.noExpiry = noExpiry
	if !noExpiry {
		j.expiry = now.Add(q.leaseTTL)
	} else {
		j.expiry = time.Time{}
	}
	q.leaseSeq++
	j.leaseID = fmt.Sprintf("L%06d", q.leaseSeq)
	j.span = q.minter.NextSpan()
	q.leases[j.leaseID] = j

	q.obs.Lease(peer, j.hash, j.name, j.leaseID, j.trace.String(), j.span.String(), j.attempts, j.enqueuedNS, now)
	return LeasedJob{
		Lease: j.leaseID, Hash: j.hash, Name: j.name, Spec: j.spec,
		Attempt: j.attempts, Trace: j.trace, Span: j.span,
	}, true
}

// Heartbeat extends a live fleet lease, returning the refreshed TTL.
func (q *Queue) Heartbeat(leaseID string, now time.Time) (time.Duration, error) {
	q.lock()
	defer q.unlock()
	j, ok := q.leases[leaseID]
	if !ok || j.state != JobLeased || j.leaseID != leaseID {
		return 0, ErrLeaseGone
	}
	if !j.noExpiry {
		j.expiry = now.Add(q.leaseTTL)
	}
	q.obs.Heartbeat(j.peer, now)
	return q.leaseTTL, nil
}

// Complete applies one result upload.  First write wins: the first
// successful result for a hash completes the job even if its lease
// expired (a slow worker's late upload is still a valid, verified
// payload); everything after is a duplicate.  A failed result under a
// live lease requeues the job until its attempts run out.
func (q *Queue) Complete(leaseID, peer, hash string, res sweep.JobResult, upload bool, now time.Time) (accepted, duplicate bool, state JobState, err error) {
	q.lock()
	defer q.unlock()

	j, leaseValid := q.leases[leaseID]
	obsLease := leaseID
	if !leaseValid {
		obsLease = ""
		if j = q.jobs[hash]; j == nil {
			return false, false, JobFailed, ErrUnknownJob
		}
	} else {
		delete(q.leases, leaseID)
		j.leaseID = ""
	}

	if j.state.Terminal() {
		// Another writer finished first; this payload is already dropped
		// (or byte-identical) in the content-addressed store.
		q.obs.UploadDuplicate(peer, j.hash, j.name, obsLease, now)
		return false, true, j.state, nil
	}

	if res.Status == sweep.StatusOK {
		if j.state == JobQueued {
			// A late upload beat the requeue; its fifo entry goes stale.
			q.queued--
			q.obs.JobDequeued()
		}
		j.state = JobDone
		j.peer = peer
		res.Spec, res.Hash = j.spec, j.hash
		if res.Attempts == 0 {
			res.Attempts = j.attempts
		}
		j.result = &res
		q.obs.JobDone(peer, j.hash, j.name, obsLease, res.Status, res.CacheHit, upload, res.Elapsed, now)
		q.noteTerminal(j, now)
		return true, false, j.state, nil
	}

	// Failed result.  Only a live lease can spend the attempt (a late
	// failure from an expired lease was already accounted by the expiry).
	if !leaseValid {
		return false, false, j.state, nil
	}
	if j.attempts < q.maxAttempts {
		q.enqueueLocked(j, now)
		q.obs.JobRequeued(peer, j.hash, j.name, obsLease, j.attempts, now)
		return true, false, j.state, nil
	}
	j.state = JobFailed
	res.Spec, res.Hash = j.spec, j.hash
	if res.Attempts == 0 {
		res.Attempts = j.attempts
	}
	j.result = &res
	q.obs.JobDone(peer, j.hash, j.name, obsLease, sweep.StatusFailed, false, upload, res.Elapsed, now)
	q.noteTerminal(j, now)
	return true, false, j.state, nil
}

// ExpireLeases requeues (or terminally fails) every fleet lease whose
// heartbeat deadline passed.  force expires live leases too — the drain
// deadline's last resort.  It returns how many leases it closed.
func (q *Queue) ExpireLeases(now time.Time, force bool) int {
	q.lock()
	defer q.unlock()

	var expired []*job
	for _, j := range q.leases {
		if j.noExpiry {
			continue
		}
		if force || (!j.expiry.IsZero() && j.expiry.Before(now)) {
			expired = append(expired, j)
		}
	}
	sort.Slice(expired, func(a, b int) bool { return expired[a].leaseID < expired[b].leaseID })

	for _, j := range expired {
		lease := j.leaseID
		delete(q.leases, lease)
		j.leaseID = ""
		q.obs.LeaseExpired(j.peer, j.hash, j.name, lease, now)
		if j.state.Terminal() {
			// A dangling lease on a job a late upload already finished.
			continue
		}
		if j.attempts < q.maxAttempts {
			q.enqueueLocked(j, now)
			q.obs.JobRequeued(j.peer, j.hash, j.name, "", j.attempts, now)
			continue
		}
		j.state = JobFailed
		j.result = &sweep.JobResult{
			Spec: j.spec, Hash: j.hash, Status: sweep.StatusFailed,
			Attempts: j.attempts,
			Error:    fmt.Sprintf("lease expired: worker %s lost after %d attempts", j.peer, j.attempts),
		}
		q.obs.JobDone(j.peer, j.hash, j.name, "", sweep.StatusFailed, false, false, 0, now)
		q.noteTerminal(j, now)
	}
	return len(expired)
}

// noteTerminal fans a job's terminal transition out to every sweep that
// references it.  Exactly one execution is attributed: the sweep that
// enqueued the job (its first reference) counts copies-1 cache hits, and
// every other sweep's copies were satisfied without running anything, so
// they all count.  Callers hold the queue lock.
func (q *Queue) noteTerminal(j *job, now time.Time) {
	ok := j.state == JobDone
	for _, s := range j.sweeps {
		copies := s.copies[j.hash]
		s.open--
		done, cached, failed := 0, 0, 0
		if ok {
			done = copies
			cached = copies
			if !(j.result != nil && j.result.CacheHit) && s == j.sweeps[0] {
				cached = copies - 1
			}
		} else {
			failed = copies
		}
		q.obs.SweepProgress(s.id, done, cached, failed, s.open == 0, now)
	}
}

// QueuedLen reports how many jobs are waiting for a lease.
func (q *Queue) QueuedLen() int {
	q.lock()
	defer q.unlock()
	return q.queued
}

// FleetLeases reports how many expiring (fleet) leases are outstanding.
func (q *Queue) FleetLeases() int {
	q.lock()
	defer q.unlock()
	n := 0
	for _, j := range q.leases {
		if !j.noExpiry {
			n++
		}
	}
	return n
}

// SweepIDs lists submitted sweeps in submission order.
func (q *Queue) SweepIDs() []string {
	q.lock()
	defer q.unlock()
	return append([]string(nil), q.order...)
}

// View renders one sweep's dsre-serve-sweep/v1 document; withJobs
// includes the per-spec job table.
func (q *Queue) View(id string, withJobs bool) (SweepView, bool) {
	q.lock()
	defer q.unlock()
	s, ok := q.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	return q.viewLocked(s, withJobs), true
}

func (q *Queue) viewLocked(s *sweepRun, withJobs bool) SweepView {
	v := SweepView{
		Schema: SweepSchema, Sweep: s.id, Tenant: s.tenant, Trace: s.trace.String(),
		Total: len(s.specs), Unique: s.uniqueNew, Finished: s.open == 0,
	}
	first := map[string]bool{}
	for _, h := range s.hashes {
		j := q.jobs[h]
		executed := j.state == JobDone && j.result != nil && !j.result.CacheHit
		hit := false
		switch {
		case j.state == JobDone && !executed:
			hit = true // store replay: every copy is a hit
		case executed && (first[h] || s != j.sweeps[0]):
			hit = true // dedup copy, or another sweep ran the point
		}
		first[h] = true
		switch j.state {
		case JobDone:
			v.Done++
			if hit {
				v.CacheHits++
			}
		case JobFailed:
			v.Failed++
		case JobQueued, JobLeased:
		}
		if withJobs {
			jv := JobView{Hash: h, Name: j.name, State: j.state.String(), Attempts: j.attempts, CacheHit: hit}
			if j.result != nil {
				jv.Error = j.result.Error
			}
			v.Jobs = append(v.Jobs, jv)
		}
	}
	return v
}

// Manifest renders one sweep as a dsre-sweep-manifest/v1 document —
// byte-compatible with dsre-sweep's own output, so -resume and
// dsre-explain -manifest work on daemon sweeps unchanged.  Copies beyond
// the first of an executed point read as cache hits, exactly like the
// engine's in-sweep dedup.  When the sweep is unfinished, open jobs
// record as failed "not run" (the drain flush); finished reports whether
// that happened.
func (q *Queue) Manifest(id string) (*sweep.Manifest, bool, bool) {
	q.lock()
	defer q.unlock()
	s, ok := q.sweeps[id]
	if !ok {
		return nil, false, false
	}
	sum := &sweep.Summary{}
	first := map[string]bool{}
	for _, h := range s.hashes {
		j := q.jobs[h]
		var r sweep.JobResult
		switch {
		case j.state.Terminal() && j.result != nil:
			r = *j.result
			if j.state == JobDone && !r.CacheHit && (first[h] || s != j.sweeps[0]) {
				r.CacheHit = true
				r.Elapsed = 0
			}
		default:
			r = sweep.JobResult{
				Spec: j.spec, Hash: h, Status: sweep.StatusFailed,
				Error: fmt.Sprintf("not run: daemon drained while %s", j.state),
			}
		}
		first[h] = true
		r.Report = nil
		sum.Jobs = append(sum.Jobs, r)
		switch r.Status {
		case sweep.StatusOK:
			sum.OK++
			if r.CacheHit {
				sum.CacheHits++
			}
		default:
			sum.Failed++
		}
	}
	return sweep.NewManifest(sum), s.open == 0, true
}

// Trace returns one sweep's trace ID.
func (q *Queue) Trace(id string) (tracing.TraceID, bool) {
	q.lock()
	defer q.unlock()
	s, ok := q.sweeps[id]
	if !ok {
		return tracing.TraceID{}, false
	}
	return s.trace, true
}

// Finished reports whether the sweep exists and has no open jobs.
func (q *Queue) Finished(id string) (bool, bool) {
	q.lock()
	defer q.unlock()
	s, ok := q.sweeps[id]
	if !ok {
		return false, false
	}
	return s.open == 0, true
}
