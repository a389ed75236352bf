package core

import (
	"repro/internal/stats"
)

// WaveStats attributes re-executed instructions to the mis-speculation wave
// that caused them.  Because instruction outputs carry the maximum of their
// input tags, the tag value itself identifies the dominating wave origin:
// every re-execution triggered (directly or transitively) by violation wave
// T carries tag T until a newer wave overtakes it.
//
// Tags come densely from the machine's TagSource, so the per-wave records
// live in a tag-indexed stats.Log (tag 0, the first-issue wave, at index
// 0): recording is O(1) with no hashing, growth never copies, and a run
// with no re-executions allocates nothing.
type WaveStats struct {
	// perWave[tag] is 0 for a tag never started nor re-executed, else
	// 1 + the re-executions attributed to it; only the tags seen make up
	// the size histogram.
	perWave stats.Log[int64]
	// Reexecs is the total number of instruction re-executions (executions
	// beyond the first for a given instruction instance).
	Reexecs int64
	// Waves is the number of recovery waves injected (violations repaired).
	Waves int64
}

// NewWaveStats returns empty accounting.
func NewWaveStats() *WaveStats { return &WaveStats{} }

// WaveStarted records the injection of a recovery wave with the given tag.
// Registering the origin (even if nothing downstream re-fires) makes
// zero-length waves visible in the size histogram.
func (w *WaveStats) WaveStarted(tag Tag) {
	w.Waves++
	if r := w.perWave.Extend(int(tag)); *r == 0 {
		*r = 1
	}
}

// Reexecuted records one instruction re-execution attributed to wave tag.
func (w *WaveStats) Reexecuted(tag Tag) {
	w.Reexecs++
	r := w.perWave.Extend(int(tag))
	*r = max(*r, 1) + 1
}

// WaveSize returns the number of re-executions attributed to wave tag
// (zero for an unknown tag), for per-wave forensics.
func (w *WaveStats) WaveSize(tag Tag) int64 {
	if int(tag) >= w.perWave.Len() {
		return 0
	}
	return max(*w.perWave.At(int(tag))-1, 0)
}

// SizeHist returns the histogram of wave sizes (re-executed instructions
// per wave tag that was started or re-executed).
func (w *WaveStats) SizeHist() *stats.Hist {
	h := &stats.Hist{}
	for i := 0; i < w.perWave.Len(); i++ {
		if r := *w.perWave.At(i); r != 0 {
			h.Add(r - 1)
		}
	}
	return h
}
