package sim

import "repro/internal/account"

// Sample is one telemetry observation window: the machine's dynamic state
// at a cycle boundary plus windowed rate counters since the previous
// sample.  The ring-buffered collector lives in internal/telemetry; the
// machine only produces Samples so the hot path stays a single nil check
// when sampling is disabled.
type Sample struct {
	// Cycle is the cycle at the end of the window; Window is the number of
	// cycles the windowed counters cover.
	Cycle  int64 `json:"cycle"`
	Window int64 `json:"window"`

	// IPC is committed executions per cycle over the window.
	IPC float64 `json:"ipc"`
	// CommittedBlocks counts blocks retired in the window.
	CommittedBlocks int64 `json:"committed_blocks"`

	// Instantaneous occupancies at sample time.
	InFlightBlocks int `json:"in_flight_blocks"` // mapped, uncommitted blocks
	WindowInsts    int `json:"window_insts"`     // instruction slots resident (ROB equivalent)
	LSQOccupancy   int `json:"lsq_occupancy"`    // resident load/store entries
	NoCPending     int `json:"noc_pending"`      // operand-mesh messages in flight

	// Windowed speculation counters.
	Waves   int64 `json:"waves"`
	Reexecs int64 `json:"reexecs"`
	Flushes int64 `json:"flushes"`

	// Windowed cache miss rates (0 when the window had no accesses).
	L1DMissRate float64 `json:"l1d_miss_rate"`
	L2MissRate  float64 `json:"l2_miss_rate"`

	// CPI is the windowed cycle-accounting delta (all-zero when accounting
	// is off); windowed buckets sum to the window's cycle count × slots.
	CPI account.CPIStack `json:"cpi"`
}

// SampleSink receives telemetry samples as the machine produces them
// (implemented by telemetry.Sampler).
type SampleSink interface {
	Sample(Sample)
}

// sampleOrigin snapshots the cumulative counters at a window start so the
// next sample can report deltas.
type sampleOrigin struct {
	cycle              int64
	committedExecs     int64
	committedBlocks    int64
	waves              int64
	reexecs            int64
	flushes            int64
	l1dHits, l1dMisses int64
	l2Hits, l2Misses   int64
	acct               account.CPIStack
}

func (mc *Machine) sampleOriginNow() sampleOrigin {
	return sampleOrigin{
		cycle:           mc.cycle,
		committedExecs:  mc.stats.CommittedExecs,
		committedBlocks: mc.committed,
		waves:           mc.wave.Waves,
		reexecs:         mc.stats.Reexecs,
		flushes:         mc.stats.Flushes,
		l1dHits:         mc.hier.L1D.Stats.Hits,
		l1dMisses:       mc.hier.L1D.Stats.Misses,
		l2Hits:          mc.hier.L2.Stats.Hits,
		l2Misses:        mc.hier.L2.Stats.Misses,
		acct:            mc.acct.stack,
	}
}

// SetSampler attaches a telemetry sink sampled every `every` cycles; a nil
// sink or non-positive interval detaches.  Sampling costs one comparison
// per cycle when attached and one nil check when not.
func (mc *Machine) SetSampler(every int64, sink SampleSink) {
	if sink == nil || every < 1 {
		mc.sampleSink = nil
		return
	}
	mc.sampleSink = sink
	mc.sampleEvery = every
	mc.sampleAt = mc.cycle + every
	mc.sampleBase = mc.sampleOriginNow()
}

// rate returns misses/(hits+misses), or 0 for an empty window.
func rate(misses, hits int64) float64 {
	if misses+hits == 0 {
		return 0
	}
	return float64(misses) / float64(misses+hits)
}

// takeSample closes the current window, emits it to the sink, and opens the
// next one.  Called from endCycle at window boundaries and from Run() for
// the final partial window.
func (mc *Machine) takeSample() {
	base := mc.sampleBase
	now := mc.sampleOriginNow()
	win := now.cycle - base.cycle
	mc.sampleAt = mc.cycle + mc.sampleEvery
	mc.sampleBase = now
	if win <= 0 {
		return
	}
	insts := 0
	for _, b := range mc.window {
		insts += len(b.insts)
	}
	s := Sample{
		Cycle:           mc.cycle,
		Window:          win,
		IPC:             float64(now.committedExecs-base.committedExecs) / float64(win),
		CommittedBlocks: now.committedBlocks - base.committedBlocks,
		InFlightBlocks:  len(mc.window),
		WindowInsts:     insts,
		LSQOccupancy:    mc.q.Occupancy(),
		NoCPending:      mc.net.Pending(),
		Waves:           now.waves - base.waves,
		Reexecs:         now.reexecs - base.reexecs,
		Flushes:         now.flushes - base.flushes,
		L1DMissRate:     rate(now.l1dMisses-base.l1dMisses, now.l1dHits-base.l1dHits),
		L2MissRate:      rate(now.l2Misses-base.l2Misses, now.l2Hits-base.l2Hits),
		CPI:             now.acct.Sub(base.acct),
	}
	mc.lastSample = s
	mc.haveSample = true
	mc.sampleSink.Sample(s)
}
