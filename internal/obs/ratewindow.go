package obs

import "time"

// RateWindow estimates a completion rate from the most recent N events
// instead of the whole-run cumulative mean, so a sweep that warms up (cold
// cache, first-touch workload builds) converges to the steady-state rate
// instead of being skewed by its start.  It is not synchronised: SweepObs
// holds its own lock around it.
type RateWindow struct {
	samples []int64 // unix nanos, ring buffer
	n, next int
}

// NewRateWindow returns a window over the last capacity completions
// (minimum 2).
func NewRateWindow(capacity int) *RateWindow {
	if capacity < 2 {
		capacity = 2
	}
	return &RateWindow{samples: make([]int64, capacity)}
}

// Observe records one completion at t.
func (w *RateWindow) Observe(t time.Time) {
	w.samples[w.next] = t.UnixNano()
	w.next = (w.next + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
}

// Rate returns completions per second over the window, measured from the
// oldest retained completion to now — anchoring on "now" lets the
// estimate decay during a stall instead of freezing at the last burst.
// It reports false until two completions are in the window.
func (w *RateWindow) Rate(now time.Time) (float64, bool) {
	if w.n < 2 {
		return 0, false
	}
	oldest := w.samples[(w.next-w.n+len(w.samples))%len(w.samples)]
	span := now.UnixNano() - oldest
	if span <= 0 {
		return 0, false
	}
	return float64(w.n-1) / (float64(span) / float64(time.Second)), true
}

// Len returns how many completions the window currently holds.
func (w *RateWindow) Len() int { return w.n }
