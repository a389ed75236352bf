package account

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/stats"
)

// EventKind classifies one audited mis-speculation repair.
type EventKind uint8

const (
	// EventFlush: the violation was repaired by a pipeline flush.
	EventFlush EventKind = iota
	// EventWave: the violation was repaired in place by a DSRE
	// re-execution wave.
	EventWave
	// EventVP: a mispredicted load value was repaired by a correction wave.
	EventVP
)

func (k EventKind) String() string {
	switch k {
	case EventFlush:
		return "flush"
	case EventWave:
		return "wave"
	case EventVP:
		return "vp"
	}
	return "?"
}

// event is one audited repair.  cost is the number of executions the repair
// discarded (flush) or would have discarded under flush recovery
// (squash-equivalent, for waves).
type event struct {
	tag        core.Tag
	cost       int64
	loadPC     predictor.PC
	storePC    predictor.PC
	depth      int32
	kind       EventKind
	superseded bool
}

// repairRow is the supersede table's row for one frame: the block seq it
// was last written for, and per LSID the newest event (plus one, so zero is
// empty) that repaired that load of the block.
type repairRow struct {
	seq int64
	ev  [isa.MaxMemOps]int32
}

// Forensics is the always-on violation audit log: one event per repaired
// violation (or value-prediction correction), plus the wave-depth chain
// (a wave triggered by a store that itself ran under wave T has depth
// depth(T)+1) and re-violation tracking (a later repair of the same dynamic
// load marks the earlier event superseded — its re-executions were wasted).
//
// Every structure is O(1) per repair and grows without copying:
//   - events is an append-only stats.Log;
//   - depth is a stats.Log indexed by tag − base, since wave tags come
//     densely from the machine's TagSource (tags before base, allocated
//     before accounting began, have depth zero, as do tags never recorded);
//   - last, the supersede table, has one row per frame, tagged with the
//     block seq and holding one entry per LSID: block seq always occupies
//     frame seq mod frames, a flush refetches a seq into that same frame
//     (so a repeated repair of the refetched load finds its entry), and a
//     younger seq takes the frame only once the older one has committed and
//     can never be repaired again, so its row is simply reset.  It is
//     allocated on the first repair, so a violation-free run allocates
//     nothing.
type Forensics struct {
	events stats.Log[event]
	depth  stats.Log[int32]
	base   core.Tag
	frames int
	last   []repairRow
}

// NewForensics returns an empty audit log for a machine with the given
// frame count whose next wave tag is base (at least 1: tag zero, the
// first-issue wave, never carries a depth).
func NewForensics(frames int, base core.Tag) *Forensics {
	return &Forensics{base: base, frames: frames}
}

// depthOf returns the recorded depth of wave tag (zero if unrecorded).
func (f *Forensics) depthOf(tag core.Tag) int32 {
	if tag < f.base || int(tag-f.base) >= f.depth.Len() {
		return 0
	}
	return *f.depth.At(int(tag - f.base))
}

// Record logs one repair.  seq/lsid name the dynamic load, loadPC/storePC
// the static violation pair (storePC is zero for value-prediction events),
// tag the repair wave, parent the conflicting store's wave tag (zero if the
// store ran un-speculatively), and cost the discarded or squash-equivalent
// execution count.
func (f *Forensics) Record(kind EventKind, seq int64, lsid int, loadPC, storePC predictor.PC, tag, parent core.Tag, cost int64) {
	d := f.depthOf(parent) + 1
	if tag >= f.base {
		*f.depth.Extend(int(tag - f.base)) = d
	}
	if f.last == nil {
		f.last = make([]repairRow, f.frames)
	}
	row := &f.last[seq%int64(f.frames)]
	if row.seq != seq {
		*row = repairRow{seq: seq}
	}
	if prev := row.ev[lsid]; prev != 0 {
		f.events.At(int(prev - 1)).superseded = true
	}
	row.ev[lsid] = int32(f.events.Len()) + 1
	f.events.Append(event{
		kind: kind, loadPC: loadPC, storePC: storePC,
		tag: tag, depth: d, cost: cost,
	})
}

// Events returns the number of audited repairs.
func (f *Forensics) Events() int { return f.events.Len() }

// StoreCount is one conflicting-store entry of a load profile.
type StoreCount struct {
	StorePC string `json:"store_pc"`
	Count   int64  `json:"count"`
}

// LoadProfile aggregates the audit log for one static load PC, hottest
// first in Summary.Loads.
type LoadProfile struct {
	LoadPC     string       `json:"load_pc"`
	Events     int64        `json:"events"`
	Flushes    int64        `json:"flushes"`
	Waves      int64        `json:"waves"`
	VPRepairs  int64        `json:"vp_repairs"`
	Reexecs    int64        `json:"reexecs"`
	SquashCost int64        `json:"squash_cost"`
	Wasted     int64        `json:"wasted"`
	MaxDepth   int64        `json:"max_depth"`
	TopStores  []StoreCount `json:"top_stores,omitempty"`
}

// Summary is the aggregated audit log, embedded in sim.Stats (and thus in
// dsre-report/v1).  The counters tie exactly to the Stats totals:
// FlushEvents+WaveEvents == LSQ.Violations, VPEvents == VPCorrections, and
// WaveReexecs+UnattributedReexecs == Reexecs.
type Summary struct {
	Events              int64         `json:"events"`
	FlushEvents         int64         `json:"flush_events"`
	WaveEvents          int64         `json:"wave_events"`
	VPEvents            int64         `json:"vp_events"`
	WaveReexecs         int64         `json:"wave_reexecs"`
	UnattributedReexecs int64         `json:"unattributed_reexecs"`
	WastedReexecs       int64         `json:"wasted_reexecs"`
	SquashCost          int64         `json:"squash_cost"`
	MaxDepth            int64         `json:"max_depth"`
	Loads               []LoadProfile `json:"loads,omitempty"`
}

// Summarize folds the audit log into per-PC profiles.  waveSize reports the
// re-executions attributed to a wave tag (core.WaveStats.WaveSize);
// totalReexecs is the machine's total re-execution counter, so the summary
// can expose the re-executions no audited wave accounts for.  top caps the
// Loads list and each TopStores list (<= 0 means unlimited).  Aggregation
// runs on integer PCs; only the profiles and stores kept are named.
func (f *Forensics) Summarize(waveSize func(core.Tag) int64, totalReexecs int64, top int) Summary {
	s := Summary{Events: int64(f.events.Len())}
	// Aggregate in first-seen order: the event log is ordered, so the
	// profile order is deterministic without sorting keys.
	type storeAgg struct {
		pc    predictor.PC
		count int64
	}
	type loadAgg struct {
		pc     predictor.PC
		p      LoadProfile
		stores []storeAgg
	}
	idx := make(map[predictor.PC]int)
	var loads []loadAgg
	for i := 0; i < f.events.Len(); i++ {
		ev := f.events.At(i)
		li, ok := idx[ev.loadPC]
		if !ok {
			li = len(loads)
			idx[ev.loadPC] = li
			loads = append(loads, loadAgg{pc: ev.loadPC})
		}
		l := &loads[li]
		p := &l.p
		p.Events++
		p.SquashCost += ev.cost
		s.SquashCost += ev.cost
		p.MaxDepth = max(p.MaxDepth, int64(ev.depth))
		s.MaxDepth = max(s.MaxDepth, int64(ev.depth))
		var re int64
		switch ev.kind {
		case EventFlush:
			s.FlushEvents++
			p.Flushes++
		case EventWave:
			s.WaveEvents++
			p.Waves++
			re = waveSize(ev.tag)
		case EventVP:
			s.VPEvents++
			p.VPRepairs++
			re = waveSize(ev.tag)
		}
		s.WaveReexecs += re
		p.Reexecs += re
		if ev.superseded {
			s.WastedReexecs += re
			p.Wasted += re
		}
		if ev.storePC != 0 {
			j := slices.IndexFunc(l.stores, func(sa storeAgg) bool { return sa.pc == ev.storePC })
			if j < 0 {
				l.stores = append(l.stores, storeAgg{pc: ev.storePC})
				j = len(l.stores) - 1
			}
			l.stores[j].count++
		}
	}
	s.UnattributedReexecs = totalReexecs - s.WaveReexecs
	// Hottest first; stable sorts keep ties in first-seen (dynamic) order.
	hotter := func(a, b int64) int { return cmp.Compare(b, a) }
	slices.SortStableFunc(loads, func(a, b loadAgg) int { return hotter(a.p.Events, b.p.Events) })
	if top > 0 && len(loads) > top {
		loads = loads[:top]
	}
	for i := range loads {
		l := &loads[i]
		l.p.LoadPC = l.pc.String()
		if len(l.stores) == 0 {
			continue
		}
		slices.SortStableFunc(l.stores, func(a, b storeAgg) int { return hotter(a.count, b.count) })
		if top > 0 && len(l.stores) > top {
			l.stores = l.stores[:top]
		}
		l.p.TopStores = make([]StoreCount, len(l.stores))
		for j, sa := range l.stores {
			l.p.TopStores[j] = StoreCount{StorePC: sa.pc.String(), Count: sa.count}
		}
	}
	if len(loads) > 0 {
		s.Loads = make([]LoadProfile, len(loads))
		for i := range loads {
			s.Loads[i] = loads[i].p
		}
	}
	return s
}
