package obs

import (
	"testing"
	"time"
)

// leaseState reads the two lease counts the protocol must keep exact: the
// dsre_serve_jobs_leased gauge and the per-peer leased figure of the
// /progress view.
func leaseState(t *testing.T, o *ServeObs, now time.Time) (gauge int64, peers map[string]int) {
	t.Helper()
	gauge = o.Reg.Snapshot().Gauge("dsre_serve_jobs_leased")
	v := o.Progress(now)
	if v.Totals.Leased != gauge {
		t.Errorf("progress totals.leased = %d, gauge = %d", v.Totals.Leased, gauge)
	}
	peers = map[string]int{}
	for _, p := range v.Workers {
		peers[p.Peer] = p.Leased
	}
	return gauge, peers
}

// TestServeObsLeaseClosesOnce pins the daemon's lease protocol: every
// granted lease is closed by exactly one of JobDone, UploadDuplicate,
// LeaseExpired or JobRequeued.  After each close the leased gauge and the
// peer's leased count are back to zero, a later lease-less hook for the
// same job does not close it twice, and the span log holds one daemon
// chain per close that ends an attempt (abandoned, duplicate, ok) and none
// for a requeue.
func TestServeObsLeaseClosesOnce(t *testing.T) {
	c := newClock()
	spans := NewSpanLog()
	o := NewServeObs(NewRegistry(), c.now(), nil, spans, 2)

	closes := []struct {
		name  string
		peer  string
		close func(peer, hash, lease string, now time.Time)
		// after is a lease-less follow-up the queue sends for the same
		// job once its lease already ended; it must not close it again.
		after func(peer, hash string, now time.Time)
	}{
		{
			name: "expired", peer: "w1",
			close: func(peer, hash, lease string, now time.Time) {
				o.LeaseExpired(peer, hash, "job", lease, now)
			},
			after: func(peer, hash string, now time.Time) {
				o.JobRequeued(peer, hash, "job", "", 1, now)
			},
		},
		{
			name: "done", peer: "w2",
			close: func(peer, hash, lease string, now time.Time) {
				o.JobDone(peer, hash, "job", lease, "ok", false, true, 5, now)
			},
			after: func(peer, hash string, now time.Time) {
				o.UploadDuplicate(peer, hash, "job", "", now)
			},
		},
		{
			name: "duplicate", peer: "w1",
			close: func(peer, hash, lease string, now time.Time) {
				o.UploadDuplicate(peer, hash, "job", lease, now)
			},
		},
		{
			name: "requeued", peer: "w2",
			close: func(peer, hash, lease string, now time.Time) {
				o.JobRequeued(peer, hash, "job", lease, 1, now)
			},
			after: func(peer, hash string, now time.Time) {
				o.JobDone(peer, hash, "job", "", "failed", false, false, 0, now)
			},
		},
	}
	for i, tc := range closes {
		hash := "h-" + tc.name
		lease := "lease-" + tc.name
		o.JobQueued()
		o.Lease(tc.peer, hash, "job", lease, "trace", "span", 1, o.Rel(c.now()), c.advance(time.Millisecond))
		if g, peers := leaseState(t, o, c.now()); g != 1 || peers[tc.peer] != 1 {
			t.Fatalf("%s: after lease: gauge %d, %s leased %d; want 1, 1", tc.name, g, tc.peer, peers[tc.peer])
		}
		tc.close(tc.peer, hash, lease, c.advance(time.Millisecond))
		if g, peers := leaseState(t, o, c.now()); g != 0 || peers[tc.peer] != 0 {
			t.Errorf("%s: after close: gauge %d, %s leased %d; want 0, 0", tc.name, g, tc.peer, peers[tc.peer])
		}
		if tc.after != nil {
			tc.after(tc.peer, hash, c.advance(time.Millisecond))
			if g, peers := leaseState(t, o, c.now()); g != 0 || peers[tc.peer] != 0 {
				t.Errorf("%s: lease-less follow-up closed again: gauge %d, %s leased %d", tc.name, g, tc.peer, peers[tc.peer])
			}
		}
		if n := len(o.leases); n != 0 {
			t.Errorf("%s: %d leases still open after close %d", tc.name, n, i+1)
		}
	}

	want := map[string]string{"h-expired": "abandoned", "h-done": "ok", "h-duplicate": "duplicate"}
	got := map[string]string{}
	for _, j := range spans.Jobs() {
		if _, seen := got[j.Hash]; seen {
			t.Errorf("job %s has more than one daemon chain", j.Hash)
		}
		got[j.Hash] = j.Status
		if j.Origin != "daemon" || j.Trace != "trace" || j.Span != "span" || j.Attempt != 1 {
			t.Errorf("chain %s: origin %q trace %q span %q attempt %d", j.Hash, j.Origin, j.Trace, j.Span, j.Attempt)
		}
		if len(j.Phases) < 2 || j.Phases[0].Phase != PhaseQueueWait || j.Phases[1].Phase != PhaseRemoteRun {
			t.Errorf("chain %s phases = %+v, want queue-wait then remote-run", j.Hash, j.Phases)
		}
	}
	if len(got) != len(want) {
		t.Errorf("span log chains = %v, want %v (none for the requeue)", got, want)
	}
	for h, st := range want {
		if got[h] != st {
			t.Errorf("chain %s status = %q, want %q", h, got[h], st)
		}
	}
}
